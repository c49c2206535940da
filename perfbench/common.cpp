#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "bench.h"
#include "machine/desc.h"
#include "sim/exec.h"
#include "support/strings.h"
#include "workload/text.h"

namespace perfbench {

using namespace dms;

Windows::Windows(Clock::time_point start, double seconds)
    : start_(start),
      windows_(static_cast<size_t>(std::max(1.0, std::floor(seconds)))),
      lengthS_(seconds / static_cast<double>(windows_.size()))
{
    for (auto &w : windows_)
        w = std::make_unique<obs::LatencyHistogram>();
}

void
Windows::add(Clock::time_point done, double ms)
{
    const double at = std::chrono::duration<double>(done - start_).count();
    const double i = std::floor(at / lengthS_);
    if (i >= 0 && i < static_cast<double>(windows_.size()))
        windows_[static_cast<size_t>(i)]->record(ms);
}

obs::HistogramSnapshot
Windows::all() const
{
    obs::HistogramSnapshot out;
    for (const auto &w : windows_)
        out.merge(w->snapshot());
    return out;
}

double
Windows::rate() const
{
    std::vector<double> rates;
    for (const auto &w : windows_)
        rates.push_back(static_cast<double>(w->snapshot().count) /
                        lengthS_);
    return midMean(rates);
}

double
Windows::percentileMs(double p) const
{
    std::vector<double> xs;
    for (const auto &w : windows_) {
        const obs::HistogramSnapshot s = w->snapshot();
        if (s.count > 0)
            xs.push_back(s.percentile(p));
    }
    return midMean(xs);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const size_t n = xs.size();
    return n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

double
midMean(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    // Drop the lowest and the highest quarter, keeping at least one.
    const size_t cut = xs.size() / 4;
    double sum = 0;
    for (size_t i = cut; i < xs.size() - cut; ++i)
        sum += xs[i];
    return sum / static_cast<double>(xs.size() - 2 * cut);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
hostCpus()
{
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

PipelineOptions
servingOptions()
{
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = true;
    return po;
}

std::string
servingMachineText()
{
    return machineToText(MachineModel::clusteredRing(4));
}

Quality
qualityOf(const std::vector<LoopRun> &runs)
{
    double useful = 0, cycles = 0, ratio = 0;
    long ok = 0;
    for (const LoopRun &r : runs) {
        if (!r.ok || r.mii <= 0)
            continue;
        useful += static_cast<double>(r.usefulIssues);
        cycles += static_cast<double>(r.cycles);
        ratio += static_cast<double>(r.ii) / r.mii;
        ++ok;
    }
    Quality q;
    q.ipc = cycles > 0 ? useful / cycles : 0;
    q.iiOverMii = ok > 0 ? ratio / static_cast<double>(ok) : 0;
    return q;
}

std::vector<std::string>
simCheck(const std::string &loopText, const MachineModel &machine,
         const PipelineOptions &options, const LoopRun &served)
{
    // Enough iterations to fill and drain the pipeline several
    // times over; the simulator is cycle-accurate and not cheap.
    constexpr long kSimIterations = 48;

    std::vector<std::string> problems;
    Loop loop;
    std::string error;
    if (!loopFromText(loopText, loop, error, machine.latency())) {
        problems.push_back("loop text does not parse: " + error);
        return problems;
    }
    Pipeline pipeline(options);
    CompilationContext ctx;
    const LoopRun direct = runLoop(pipeline, loop, machine, ctx);
    if (direct != served) {
        problems.push_back(strfmt(
            "%s: served LoopRun (ok=%d ii=%d cycles=%ld) differs "
            "from the direct path (ok=%d ii=%d cycles=%ld)",
            loop.name.c_str(), served.ok, served.ii, served.cycles,
            direct.ok, direct.ii, direct.cycles));
    }
    if (!direct.ok)
        return problems;
    for (std::string &p : simulateAndCheck(
             ctx.scheduledDdg(), machine, *ctx.result.sched.schedule,
             std::min(ctx.iterations, kSimIterations)))
        problems.push_back(loop.name + ": " + p);
    return problems;
}

} // namespace perfbench
