#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

/**
 * @file
 * Shared pieces of the repo benchmark: the command-line arguments,
 * the outcome every workload fills (metrics, output checks, run
 * record), timing helpers, and the traced-run layer
 * accounting (layers.cpp). The three workloads live in their own
 * files and drive the library only through its public headers.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/runner.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace perfbench {

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /**
     * Seeded-defect mode for the benchmark's own tests: "looprun"
     * flips one LoopRun field of one served result, "response"
     * corrupts one byte of one TCP response. Either must make the
     * output check fail.
     */
    std::string defect;

    std::string gitRev = "unknown";
    std::string srcDigest = "unknown";
    std::string traceDir = ".";
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a workload run produced. */
struct Outcome
{
    /** Contract metrics: end-to-end (untraced) or per-layer. */
    std::vector<Metric> metrics;

    /**
     * Printed but not part of the final JSON: error_rate, the
     * traced run's own end-to-end numbers, diagnostics.
     */
    std::vector<Metric> info;

    long attempted = 0;
    long failed = 0;

    /** Output-check failures; empty means correct. */
    std::vector<std::string> problems;

    /** Run-record fields (client/worker/job counts, samples). */
    std::map<std::string, std::string> record;

    void
    add(const std::string &name, double value,
        const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    note(const std::string &name, double value,
         const std::string &unit)
    {
        info.push_back({name, value, unit});
    }
};

Outcome runColdCompile(const Args &args);
Outcome runWarmTcp(const Args &args);
Outcome runFigMatrix(const Args &args);

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * A timed phase cut into windows of about one second by completion
 * time; completions after the phase ends fall in no window.
 * Throughput and latency percentiles are taken per window, and what
 * is reported is their mean over the middle half of the windows
 * (midMean), so a burst of interference from other tenants of the
 * host moves an outer window, not the result. Each window is an
 * obs::LatencyHistogram, so add() is thread-safe and a run's memory
 * does not grow with its request count.
 */
class Windows
{
  public:
    Windows(Clock::time_point start, double seconds);

    /** Record one completion at @p done that took @p ms. */
    void add(Clock::time_point done, double ms);

    /** Every sample recorded in a window. */
    dms::obs::HistogramSnapshot all() const;
    size_t size() const { return windows_.size(); }

    /** Completions per second of a window, midMean over windows. */
    double rate() const;

    /** A window's percentile @p p in ms, midMean over windows. */
    double percentileMs(double p) const;

  private:
    Clock::time_point start_;
    std::vector<std::unique_ptr<dms::obs::LatencyHistogram>> windows_;
    double lengthS_;
};

/**
 * Seed of the fixed inputs the schedule-quality metrics (ipc,
 * ii_over_mii) are computed over, derived from the repo's suite
 * seed: the same in every run, so those metrics repeat exactly
 * across runs. It is even; run seeds are mapped to odd ones.
 */
inline constexpr std::uint64_t kQualitySeed = 0x4d4d463939ULL << 1;

/** Median of @p xs (copied); 0 if empty. */
double median(std::vector<double> xs);

/**
 * Mean of the middle half of @p xs (the interquartile mean); 0 if
 * empty. Robust like the median, but it is not stuck on one value
 * when the values come from histogram buckets.
 */
double midMean(std::vector<double> xs);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** Logical CPUs of this host (>= 1). */
int hostCpus();

/**
 * Run @p setUp @p reps times, keep the last product in @p out, and
 * append each set-up's time in seconds to @p times. Earlier products
 * are destroyed outside the timed region. A run sets up kSetupReps
 * times before its timed phase, then kSetupReps times after it (the
 * serve workloads) or once after each sweep (fig_matrix), and
 * setup_s is the median of all of them: the host's speed drifts over
 * seconds, so set-ups spread over a run sample more than one stretch
 * of it.
 */
template <class T, class F>
void
timeSetups(int reps, F setUp, std::unique_ptr<T> &out,
           std::vector<double> &times)
{
    for (int r = 0; r < reps; ++r) {
        out.reset();
        const Clock::time_point t0 = Clock::now();
        out = setUp();
        times.push_back(secondsSince(t0));
    }
}

/** Set-ups before the timed phase, and after it on serve workloads. */
inline constexpr int kSetupReps = 4;

/**
 * The serving configuration both serve workloads use: DMS on the
 * paper's 4-cluster queue ring with regalloc and codegen on, so
 * each reply carries the kernel a client compiles for.
 */
dms::PipelineOptions servingOptions();
std::string servingMachineText();

/**
 * Options suffix of the standalone-cache keys the traced runs build:
 * the service keys its caches on loop text, machine text and an
 * options string joined by '\x01'; this stands in for the options
 * part, which the service does not export.
 */
inline constexpr char kServingOptionsKey[] = "\x01sched=dms;ra=1;cg=1";

/** Σ useful issues ÷ Σ cycles and mean II/MII over ok runs. */
struct Quality
{
    double ipc = 0;
    double iiOverMii = 0;
};
Quality qualityOf(const std::vector<dms::LoopRun> &runs);

/**
 * Re-run one (loop text, machine) compile on the direct path and
 * return the problems found: its LoopRun must equal @p served and
 * the schedule must execute in the simulator with the same store
 * log as the sequential reference interpreter.
 */
std::vector<std::string>
simCheck(const std::string &loopText, const dms::MachineModel &machine,
         const dms::PipelineOptions &options,
         const dms::LoopRun &served);

/** @name Traced-run layer accounting (layers.cpp) */
/// @{

/** Work counts gathered next to the stage spans. */
struct LayerCounts
{
    long compiles = 0;
    long opsOut = 0;
    long copies = 0;
    long attempts = 0;
    long placements = 0;
    long firstTry = 0;
    long moves = 0;
    long queues = 0;
};

/**
 * One compile through @p pipeline with @p trace on the context, so
 * Pipeline::run records one span per stage, then codegen's text
 * emission as the service does it, in a span of its own. Returns
 * false when scheduling or emission failed.
 */
bool shadowCompile(dms::obs::Trace *trace,
                   const dms::Pipeline &pipeline,
                   const dms::Loop &loop,
                   const dms::MachineModel &machine,
                   dms::CompilationContext &ctx, LayerCounts &counts);

/** Self time (µs) and call count per span name. */
struct SpanTotals
{
    std::map<std::string, double> selfUs;
    std::map<std::string, long> calls;

    void add(const dms::obs::Trace &trace);
    void merge(const SpanTotals &other);

    /**
     * Σ self time of @p names per call of the first; 0 if it was
     * never called.
     */
    double meanUs(const std::vector<std::string> &names) const;

    /** Σ self time of every span named in @p names. */
    double sumUs(const std::vector<std::string> &names) const;
};

/**
 * A traced run's finished traces: every one is folded into the span
 * totals, and the first kExportCap are kept in memory for export, so
 * a long traced run stays bounded.
 */
struct TraceBook
{
    static constexpr size_t kExportCap = 2048;

    SpanTotals spans;
    std::vector<std::shared_ptr<const dms::obs::Trace>> kept;
    long recorded = 0;

    /** Finish @p trace and account for it. */
    void add(std::shared_ptr<dms::obs::Trace> trace);
    void merge(const TraceBook &other);
};

/**
 * The per-layer metrics every traced run reports, in the order of
 * BENCHMARK.json; layers a workload does not run report 0.
 */
void addLayerMetrics(Outcome &out, const SpanTotals &spans,
                     const LayerCounts &counts,
                     const std::map<std::string, double> &extra);

/**
 * Export the kept traces with tracesToJson to
 * <traceDir>/<workload>.trace.json and lint the file with the obs
 * checks (obs.trace-nesting); lint findings are problems.
 */
void exportTraces(const Args &args, const TraceBook &book,
                  Outcome &out);
/// @}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
