/**
 * @file
 * fig_matrix: runMatrix over standardSuite(seed) with the default
 * RunnerOptions (DMS on 1..10-cluster queue rings against IMS on
 * the equal-width unclustered machines, regalloc on), one job per
 * CPU — the data path behind figures 4-6, with no serve layer.
 * After one untimed warm-up sweep, whole sweeps are repeated until
 * the run length is used up; one sweep is one latency sample, so
 * with fewer than 100 sweeps the reported p99 is the slowest sweep,
 * and ops_per_s is the cells of one sweep over the p50 sweep
 * time.
 */

#include <algorithm>

#include "bench.h"
#include "machine/desc.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "workload/kernels.h"
#include "workload/text.h"

namespace perfbench {

using namespace dms;

namespace {

/** Cells whose results the sampled simulation check re-runs. */
constexpr int kSimSample = 48;

struct Rig
{
    std::vector<Loop> suite;
};

RunnerOptions
sweepOptions()
{
    RunnerOptions opts;
    opts.progress = false;
    opts.jobs = hostCpus();
    return opts;
}

/** The column's pipeline, as runMatrix configures it. */
PipelineOptions
columnOptions(const RunnerOptions &opts, bool clustered)
{
    PipelineOptions po;
    po.scheduler = clustered ? opts.clusteredScheduler
                             : opts.unclusteredScheduler;
    po.config.base = opts.ims;
    po.config.dms = opts.dms;
    po.verify = opts.verify;
    po.regalloc = opts.regalloc;
    po.perf = true;
    po.analyze = opts.analyze;
    return po;
}

MachineModel
columnMachine(const RunnerOptions &opts, bool clustered, int clusters)
{
    MachineModel m = MachineModel::unclustered(1);
    std::string error;
    machineFromText(
        expandMachineTemplate(clustered ? opts.clusteredMachine
                                        : opts.unclusteredMachine,
                              clusters),
        m, error);
    return m;
}

/** One matrix cell: config index, loop index, column. */
struct Cell
{
    size_t config = 0;
    size_t loop = 0;
    bool clustered = false;
};

std::vector<Cell>
allCells(const std::vector<ConfigRun> &matrix, size_t loops)
{
    std::vector<Cell> cells;
    for (size_t ci = 0; ci < matrix.size(); ++ci)
        for (size_t li = 0; li < loops; ++li)
            for (bool clustered : {false, true})
                cells.push_back({ci, li, clustered});
    return cells;
}

LoopRun &
cellRun(std::vector<ConfigRun> &matrix, const Cell &c)
{
    ConfigRun &cr = matrix[c.config];
    return c.clustered ? cr.clustered[c.loop] : cr.unclustered[c.loop];
}

} // namespace

Outcome
runFigMatrix(const Args &args)
{
    Outcome out;
    const auto makeRig = [&] {
        auto r = std::make_unique<Rig>();
        r->suite = standardSuite(args.seed);
        return r;
    };
    std::unique_ptr<Rig> rig;
    std::vector<double> setupS;
    timeSetups(kSetupReps, makeRig, rig, setupS);
    const RunnerOptions opts = sweepOptions();
    const std::vector<Loop> &suite = rig->suite;

    // Warm-up sweep, untimed: the first sweep of a process pays for
    // allocator growth the later ones reuse. Its matrix is the
    // reference every timed sweep must reproduce exactly.
    std::vector<ConfigRun> first;
    long sweeps = 1, differing = 0, threw = 0;
    try {
        first = runMatrix(suite, opts);
    } catch (const std::exception &e) {
        ++threw;
        out.problems.push_back(strfmt("runMatrix threw: %s", e.what()));
    }

    Samples sweepMs;
    TraceBook book;
    const Clock::time_point start = Clock::now();
    do {
        auto trace = args.trace ? std::make_shared<obs::Trace>()
                                : nullptr;
        std::vector<ConfigRun> matrix;
        const Clock::time_point t0 = Clock::now();
        try {
            obs::ScopedSpan span(trace.get(), "runner.matrix");
            matrix = runMatrix(suite, opts);
        } catch (const std::exception &e) {
            ++threw;
            out.problems.push_back(
                strfmt("runMatrix threw: %s", e.what()));
        }
        sweepMs.add(msBetween(t0, Clock::now()));
        ++sweeps;
        if (trace != nullptr)
            book.add(std::move(trace));
        if (matrix != first)
            ++differing;
        // One set-up per sweep, outside the sweep timer: a set-up
        // takes ~1/50 of a sweep, so its samples span the run as
        // the sweeps do, instead of one stretch of the host.
        if (!args.trace) {
            std::unique_ptr<Rig> again;
            timeSetups(1, makeRig, again, setupS);
        }
    } while (secondsSince(start) < args.seconds);

    const size_t cellsPerSweep =
        first.size() * suite.size() * 2;
    out.attempted = static_cast<long>(cellsPerSweep) * sweeps;
    out.failed = static_cast<long>(cellsPerSweep) * threw;
    if (differing > 0)
        out.problems.push_back(strfmt(
            "%ld of %ld timed sweeps differ from the warm-up sweep",
            differing, sweeps - 1));

    // Output check: a seeded sample of cells re-run on the direct
    // path (same LoopRun) and executed in the simulator.
    std::vector<Cell> cells = allCells(first, suite.size());
    if (args.defect == "looprun" && !cells.empty())
        cellRun(first, cells.front()).cycles += 1;
    Rng rng(args.seed ^ 0xf16a3a7ULL);
    std::vector<Cell> sample;
    if (!cells.empty()) {
        sample.push_back(cells.front());
        for (int k = 1; k < kSimSample; ++k)
            sample.push_back(cells[static_cast<size_t>(
                rng.range(0, static_cast<int>(cells.size()) - 1))]);
    }
    for (const Cell &c : sample) {
        const int clusters = first[c.config].clusters;
        const MachineModel m =
            columnMachine(opts, c.clustered, clusters);
        for (std::string &p :
             simCheck(loopToText(suite[c.loop]), m,
                      columnOptions(opts, c.clustered),
                      cellRun(first, c)))
            out.problems.push_back(
                strfmt("cell (%d clusters, %s): %s", clusters,
                       c.clustered ? "clustered" : "unclustered",
                       p.c_str()));
    }

    // Schedule quality over the cells of the named kernels, which
    // standardSuite appends to every seed's suite: fixed inputs, so
    // the numbers repeat exactly across runs.
    const size_t kernelsFrom = suite.size() - namedKernels().size();
    std::vector<LoopRun> runs;
    for (const Cell &c : cells)
        if (c.loop >= kernelsFrom)
            runs.push_back(cellRun(first, c));
    const Quality q = qualityOf(runs);
    const double p50 = sweepMs.percentile(50);
    const double p99 = sweepMs.percentile(99);
    const double cellsPerS =
        static_cast<double>(cellsPerSweep) / (p50 / 1000.0);

    out.record["jobs"] = std::to_string(opts.jobs);
    out.record["latency_samples"] = std::to_string(sweepMs.count());
    out.record["latency_unit_of_work"] = "one full sweep";
    out.record["cells_per_sweep"] = std::to_string(cellsPerSweep);
    out.record["sim_checked"] = std::to_string(sample.size());
    out.record["loops"] = std::to_string(suite.size());

    if (!args.trace) {
        out.record["setup_reps"] = std::to_string(setupS.size());
        out.add("setup_s", median(setupS), "s");
        out.add("ops_per_s", cellsPerS, "1/s");
        out.add("latency_p50_ms", p50, "ms");
        out.add("latency_p99_ms", p99, "ms");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        out.add("ipc", q.ipc, "ratio");
        out.add("ii_over_mii", q.iiOverMii, "ratio");
        out.note("error_rate",
                 static_cast<double>(out.failed) /
                     static_cast<double>(
                         std::max<long>(out.attempted, 1)),
                 "ratio");
        return out;
    }

    // Single-threaded shadow pass over every cell, one span per stage.
    LayerCounts counts;
    CompilationContext ctx;
    Samples cellUs;
    double cellTotalUs = 0;
    long shadowMismatch = 0;
    for (size_t ci = 0; ci < first.size(); ++ci) {
        for (bool clustered : {false, true}) {
            const MachineModel m =
                columnMachine(opts, clustered, first[ci].clusters);
            const Pipeline pipeline(columnOptions(opts, clustered));
            for (size_t li = 0; li < suite.size(); ++li) {
                auto trace = std::make_shared<obs::Trace>();
                bool ok;
                {
                    obs::ScopedSpan span(trace.get(), "cell");
                    ok = shadowCompile(trace.get(), pipeline, suite[li],
                                       m, ctx, counts);
                }
                trace->finish();
                const LoopRun &served =
                    cellRun(first, {ci, li, clustered});
                if (ok != served.ok ||
                    (ok && ctx.result.sched.ii != served.ii))
                    ++shadowMismatch;
                const double us = trace->spans().front().durUs;
                cellUs.add(us);
                cellTotalUs += us;
                book.add(std::move(trace));
            }
        }
    }
    std::map<std::string, double> extra;
    extra["runner.cell_us"] =
        cellTotalUs /
        static_cast<double>(std::max<std::uint64_t>(cellUs.count(), 1));
    extra["runner.cell_p99_us"] = cellUs.percentile(99);
    extra["runner.parallel_efficiency"] =
        cellTotalUs / (p50 * 1000.0 * opts.jobs);
    addLayerMetrics(out, book.spans, counts, extra);
    exportTraces(args, book, out);

    out.note("traced.ops_per_s", cellsPerS, "1/s");
    out.note("traced.latency_p50_ms", p50, "ms");
    out.note("traced.shadow_mismatches",
             static_cast<double>(shadowMismatch), "count");
    return out;
}

} // namespace perfbench
