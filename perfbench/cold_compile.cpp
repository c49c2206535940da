/**
 * @file
 * cold_compile: an in-process CompileService with one worker, fed
 * by one closed-loop client. Every request is a seeded synthetic
 * loop (coldLoopText) on the paper's 4-cluster queue ring, DMS with
 * regalloc and codegen. An untimed warm-up first serves a fixed
 * prefix of as many loops as the cache holds (the schedule-quality
 * metrics come from it), so every timed insert evicts. The timed
 * pool, drawn from the run's seed, holds four times the cache
 * capacity and is walked in order, so no loop comes back before its
 * entry was evicted: every timed request is a miss.
 *
 * The client and the worker share one CPU at a time from set-up to
 * the end of the timed phase, and hop together over every CPU the
 * process may use (CpuRotation).
 */

#include <dirent.h>
#include <sched.h>

#include <cstdlib>

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "machine/desc.h"
#include "sched/scheduler.h"
#include "serve/loadgen.h"
#include "serve/service.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/text.h"

namespace perfbench {

using namespace dms;

namespace {

/** ServeOptions' default result-cache capacity. */
const int kCacheCapacity = ServeOptions{}.cacheCapacity;
const int kPool = 4 * kCacheCapacity;

/** Served results the sampled simulation check re-runs. */
constexpr int kSimSample = 32;

/** What the set-up phase builds: inputs plus a running service. */
struct Rig
{
    std::string machineText;
    std::vector<CompileRequest> prefix; ///< fixed; the warm-up
    std::vector<CompileRequest> pool;   ///< from the seed; timed
    std::unique_ptr<CompileService> service;
};

std::vector<CompileRequest>
coldRequests(std::uint64_t seed, int count,
             const std::string &machineText)
{
    std::vector<CompileRequest> out(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        CompileRequest &req = out[static_cast<size_t>(i)];
        req.loopText = coldLoopText(seed, i);
        req.machineText = machineText;
        req.options = servingOptions();
    }
    return out;
}

std::unique_ptr<Rig>
setUp(std::uint64_t seed)
{
    auto rig = std::make_unique<Rig>();
    rig->machineText = servingMachineText();
    rig->prefix =
        coldRequests(kQualitySeed, kCacheCapacity, rig->machineText);
    // Odd pool seeds never meet the even quality seed.
    rig->pool = coldRequests((seed << 1) | 1, kPool, rig->machineText);
    ServeOptions so;
    so.workers = 1;
    rig->service = std::make_unique<CompileService>(so);
    return rig;
}

/**
 * On each hop(), moves every thread of the process together to the
 * next CPU the process may use, so they share one CPU at a time. The closed loop never runs client and worker at once, so
 * sharing a CPU costs nothing, and on a virtual machine a wake-up
 * across CPUs costs a variable 0.1-1 ms. Each virtual CPU is slowed
 * by other tenants of the host in stretches of its own, so hopping
 * every few hundred ms makes every 1-s window sample all of them,
 * as the multi-threaded workloads do, instead of one CPU's luck.
 * release() (or destruction) restores the previous mask.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
    }

    ~CpuRotation() { release(); }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move every thread to the next CPU. */
    void
    hop()
    {
        if (cpus_.empty())
            return;
        next_ = (next_ + 1) % cpus_.size();
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_], &one);
        pinned_ = setAll(one);
        hops_ += pinned_ ? 1 : 0;
    }

    void
    release()
    {
        if (pinned_)
            setAll(saved_);
        pinned_ = false;
    }

    /** CPUs hopped over, or 0 when pinning failed. */
    int
    cpus() const
    {
        return hops_ > 0 ? static_cast<int>(cpus_.size()) : 0;
    }
    long hops() const { return hops_; }

  private:
    /** Set @p mask on every thread of the process. */
    static bool
    setAll(const cpu_set_t &mask)
    {
        DIR *dir = opendir("/proc/self/task");
        if (dir == nullptr)
            return false;
        bool ok = true;
        while (const dirent *e = readdir(dir)) {
            const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
            if (tid > 0 &&
                sched_setaffinity(tid, sizeof mask, &mask) != 0)
                ok = false;
        }
        closedir(dir);
        return ok;
    }

    cpu_set_t saved_{};
    std::vector<int> cpus_;
    size_t next_ = static_cast<size_t>(-1);
    bool pinned_ = false;
    long hops_ = 0;
};

/** Time on one CPU before the timed phase hops to the next. */
constexpr std::chrono::milliseconds kHop{250};

bool
answered(CompileStatus s)
{
    return s == CompileStatus::Ok || s == CompileStatus::Unschedulable;
}

/**
 * Results served for one input list, one slot per input (fixed
 * memory): the first LoopRun of each input, and how many later
 * results of the same input differed from it.
 */
struct ServedSet
{
    explicit ServedSet(size_t n) : first(n), seen(n, 0) {}

    void
    record(size_t i, const CompileResult &r)
    {
        const bool wellFormed =
            answered(r.status) &&
            r.kernelText.empty() == (r.status != CompileStatus::Ok);
        if (!wellFormed && bad++ == 0)
            firstBad = strfmt("input %zu: status %s, %s kernel text",
                              i, compileStatusName(r.status),
                              r.kernelText.empty() ? "no" : "with");
        if (!seen[i]) {
            first[i] = r.run;
            seen[i] = 1;
        } else if (first[i] != r.run) {
            ++repeatsDiffering;
        }
    }

    std::vector<LoopRun> first;
    std::vector<char> seen;
    long bad = 0;
    long repeatsDiffering = 0;
    std::string firstBad;
};

/**
 * The output check for one input list: every served LoopRun equals
 * a direct-path runLoop on the same text (computed on every core),
 * repeats of an input agree, Ok results carry kernel text, and a
 * seeded sample is simulation-checked.
 */
void
checkOutputs(const char *what, const std::vector<CompileRequest> &reqs,
             const ServedSet &served, const MachineModel &machine,
             Rng &rng, int simSample, Outcome &out)
{
    const size_t n = reqs.size();
    std::vector<LoopRun> direct(n);
    std::vector<char> parsed(n, 0);
    std::atomic<size_t> next{0};
    auto work = [&] {
        const Pipeline pipeline(servingOptions());
        CompilationContext ctx;
        for (size_t i = next++; i < n; i = next++) {
            if (!served.seen[i])
                continue;
            Loop loop;
            std::string err;
            if (!loopFromText(reqs[i].loopText, loop, err,
                              machine.latency()))
                continue;
            parsed[i] = 1;
            direct[i] = runLoop(pipeline, loop, machine, ctx);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < hostCpus(); ++t)
        threads.emplace_back(work);
    for (std::thread &t : threads)
        t.join();

    std::vector<size_t> seen;
    long mismatches = 0;
    for (size_t i = 0; i < n; ++i) {
        if (!served.seen[i])
            continue;
        seen.push_back(i);
        if (parsed[i] && served.first[i] == direct[i])
            continue;
        if (mismatches++ < 3)
            out.problems.push_back(strfmt(
                "%s loop %zu: served LoopRun (ok=%d ii=%d cycles=%ld) "
                "differs from the direct path (ok=%d ii=%d "
                "cycles=%ld)",
                what, i, served.first[i].ok, served.first[i].ii,
                served.first[i].cycles, direct[i].ok, direct[i].ii,
                direct[i].cycles));
    }
    if (mismatches > 3)
        out.problems.push_back(strfmt(
            "%s: %ld served results differ from the direct path", what,
            mismatches));
    if (served.bad > 0)
        out.problems.push_back(
            strfmt("%s: %ld malformed results, first: %s", what,
                   served.bad, served.firstBad.c_str()));
    if (served.repeatsDiffering > 0)
        out.problems.push_back(strfmt(
            "%s: %ld repeated compiles differ from the first", what,
            served.repeatsDiffering));

    for (int k = 0; k < simSample && !seen.empty(); ++k) {
        const size_t i = seen[static_cast<size_t>(
            rng.range(0, static_cast<int>(seen.size()) - 1))];
        for (std::string &p : simCheck(reqs[i].loopText, machine,
                                       servingOptions(),
                                       served.first[i]))
            out.problems.push_back(std::move(p));
    }
}

std::string
canonicalKey(const Loop &loop, const MachineModel &machine)
{
    std::string key = loopToText(loop);
    key += '\x01';
    key += machineToText(machine);
    key += kServingOptionsKey;
    return key;
}

} // namespace

Outcome
runColdCompile(const Args &args)
{
    Outcome out;
    CpuRotation pin;
    // Each set-up on the next CPU, so set-ups sample them all too.
    const auto makeRig = [&] {
        pin.hop();
        return setUp(args.seed);
    };
    std::unique_ptr<Rig> rig;
    std::vector<double> setupS;
    timeSetups(kSetupReps, makeRig, rig, setupS);
    CompileService &service = *rig->service;
    const MachineModel machine =
        machineFromTextOrDie(rig->machineText);

    // Warm-up, untimed: fill the cache with the fixed prefix.
    ServedSet prefix(rig->prefix.size());
    for (size_t i = 0; i < rig->prefix.size(); ++i)
        prefix.record(i, *service.compile(rig->prefix[i]));

    // Traced-run instrument: a standalone cache of the service's
    // shape, fed the same canonical keys, so its acquire() pays for
    // the evictions the service's does.
    const ServeOptions defaults;
    ResultCache standalone(defaults.shards, defaults.cacheCapacity,
                           defaults.eviction);
    const auto standaloneInsert = [&](const std::string &key) {
        std::shared_ptr<CacheEntry> entry;
        if (standalone.acquire(key, fnv1a64(key), entry) ==
            ResultCache::Lookup::Inserted) {
            entry->promise.set_value(
                std::make_shared<const CompileResult>());
            entry->ready.store(true, std::memory_order_release);
        }
    };
    if (args.trace) {
        for (const CompileRequest &req : rig->prefix)
            standaloneInsert(
                canonicalKey(loopFromText(req.loopText,
                                          machine.latency()),
                             machine));
    }
    TraceBook book;
    LayerCounts counts;
    CompilationContext shadowCtx;
    double clientUs = 0, layerUs = 0;
    long shadowMismatch = 0;
    const Pipeline shadowPipeline(servingOptions());
    const std::vector<std::string> layerSpans = {
        "desc.machine_parse", "text.loop_parse", "sched.registry",
        "text.loop_print", "desc.machine_print", "cache.acquire",
        "unroll", "prepass", "mii", "schedule", "sched.attempt",
        "regalloc", "codegen", "verify", "perf", "analyze",
        "codegen.emit"};

    ServedSet pool(rig->pool.size());
    long requests = 0, good = 0;
    const ServeStats before = service.stats();
    const Clock::time_point start = Clock::now();
    Windows windows(start, args.seconds);
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(args.seconds));
    Clock::time_point nextHop = start + kHop;
    for (Clock::time_point now; (now = Clock::now()) < end;) {
        if (now >= nextHop) {
            pin.hop();
            nextHop += kHop;
        }
        const size_t index = static_cast<size_t>(requests % kPool);
        const CompileRequest &req = rig->pool[index];
        ++requests;
        CompileService::ResultPtr r;
        std::shared_ptr<obs::Trace> trace;
        if (args.trace)
            trace = std::make_shared<obs::Trace>();
        const Clock::time_point t0 = Clock::now();
        if (!args.trace) {
            r = service.compile(req);
        } else {
            obs::ScopedSpan request(trace.get(), "request");
            CompileService::Ticket ticket;
            {
                obs::ScopedSpan span(trace.get(), "service.submit");
                ticket = service.submit(req);
            }
            obs::ScopedSpan span(trace.get(), "service.wait");
            r = ticket.future.get();
        }
        const Clock::time_point t1 = Clock::now();
        windows.add(t1, msBetween(t0, t1));
        good += answered(r->status) ? 1 : 0;
        pool.record(index, *r);
        if (!args.trace)
            continue;

        {
            // The same request once more, layer by layer.
            obs::ScopedSpan shadow(trace.get(), "shadow");
            MachineModel m = MachineModel::unclustered(1);
            Loop loop;
            std::string err;
            {
                obs::ScopedSpan s(trace.get(), "desc.machine_parse");
                machineFromText(req.machineText, m, err);
            }
            {
                obs::ScopedSpan s(trace.get(), "text.loop_parse");
                loopFromText(req.loopText, loop, err, m.latency());
            }
            {
                obs::ScopedSpan s(trace.get(), "sched.registry");
                std::unique_ptr<Scheduler> sched =
                    SchedulerRegistry::instance().create("dms");
                if (sched == nullptr || !sched->supports(m))
                    ++shadowMismatch;
            }
            std::string key;
            {
                obs::ScopedSpan s(trace.get(), "text.loop_print");
                key = loopToText(loop);
            }
            key += '\x01';
            {
                obs::ScopedSpan s(trace.get(), "desc.machine_print");
                key += machineToText(m);
            }
            key += kServingOptionsKey;
            {
                obs::ScopedSpan s(trace.get(), "cache.acquire");
                standaloneInsert(key);
            }
            obs::ScopedSpan pipeline(trace.get(), "pipeline");
            const bool ok = shadowCompile(trace.get(), shadowPipeline,
                                          loop, m, shadowCtx, counts);
            if (ok != r->run.ok ||
                (ok && shadowCtx.result.sched.ii != r->run.ii))
                ++shadowMismatch;
        }
        trace->finish();
        SpanTotals one;
        one.add(*trace);
        clientUs += one.sumUs({"service.submit", "service.wait"});
        layerUs += one.sumUs(layerSpans);
        book.add(std::move(trace));
    }
    const double elapsed = secondsSince(start);
    const ServeStats after = service.stats();
    pin.release(); // the checks below use every core
    out.record["pinned_cpus"] = std::to_string(pin.cpus());
    out.record["cpu_hops"] = std::to_string(pin.hops());

    // Output checks, outside set-up and the timed phase.
    if (args.defect == "looprun")
        pool.first[0].ii += 1;
    Rng rng(args.seed ^ 0x51a5eedULL);
    checkOutputs("prefix", rig->prefix, prefix, machine, rng, 0, out);
    checkOutputs("pool", rig->pool, pool, machine, rng, kSimSample,
                 out);
    const std::uint64_t misses = after.misses - before.misses;
    const std::uint64_t hits = (after.hits - before.hits) +
                               (after.coalesced - before.coalesced);
    if (misses != static_cast<std::uint64_t>(requests))
        out.problems.push_back(strfmt(
            "workload invariant: %ld timed requests but %llu misses "
            "(%llu hits)",
            requests, static_cast<unsigned long long>(misses),
            static_cast<unsigned long long>(hits)));

    out.attempted = requests;
    out.failed = requests - good;
    const double rps = windows.rate();
    const double p50 = windows.percentileMs(50);
    const double p99 = windows.percentileMs(99);
    const Quality q = qualityOf(prefix.first);

    out.record["clients"] = "1";
    out.record["workers"] = std::to_string(service.workers());
    out.record["latency_samples"] =
        std::to_string(windows.all().count);
    out.record["windows"] = std::to_string(windows.size());
    out.record["quality_inputs"] = std::to_string(rig->prefix.size());
    out.record["pool"] = std::to_string(kPool);
    out.record["sim_checked"] = std::to_string(kSimSample);

    if (!args.trace) {
        const double rssMb = peakRssMb();
        rig.reset();
        timeSetups(kSetupReps, makeRig, rig, setupS);
        rig.reset();
        pin.release();
        out.record["setup_reps"] = std::to_string(setupS.size());
        out.add("setup_s", median(setupS), "s");
        out.add("ops_per_s", rps, "1/s");
        out.add("latency_p50_ms", p50, "ms");
        out.add("latency_p99_ms", p99, "ms");
        out.add("peak_rss_mb", rssMb, "MiB");
        out.add("ipc", q.ipc, "ratio");
        out.add("ii_over_mii", q.iiOverMii, "ratio");
        out.note("run.ops_per_s", static_cast<double>(good) / elapsed,
                 "1/s");
        out.note("run.latency_p50_ms", windows.all().percentile(50),
                 "ms");
        out.note("run.latency_p99_ms", windows.all().percentile(99),
                 "ms");
        out.note("error_rate",
                 static_cast<double>(out.failed) /
                     static_cast<double>(std::max<long>(requests, 1)),
                 "ratio");
        return out;
    }

    // Poll costs: the telemetry reads a monitor would make.
    for (int k = 0; k < 256; ++k) {
        auto trace = std::make_shared<obs::Trace>();
        {
            obs::ScopedSpan s(trace.get(), "service.stats");
            (void)service.stats();
        }
        {
            obs::ScopedSpan s(trace.get(), "service.metrics");
            (void)service.metrics();
        }
        book.add(std::move(trace));
    }
    std::map<std::string, double> extra;
    const double submits = static_cast<double>(
        std::max<std::uint64_t>(after.requests - before.requests, 1));
    extra["service.hit_ratio"] = static_cast<double>(hits) / submits;
    extra["service.queue_peak"] = after.peakQueueDepth;
    extra["cache.evictions_per_kreq"] =
        1000.0 *
        static_cast<double>(after.evictions - before.evictions) /
        submits;
    extra["residual_share"] =
        clientUs > 0 ? (clientUs - layerUs) / clientUs : 0;
    addLayerMetrics(out, book.spans, counts, extra);
    exportTraces(args, book, out);

    out.note("traced.ops_per_s", rps, "1/s");
    out.note("traced.latency_p50_ms", p50, "ms");
    out.note("traced.latency_p99_ms", p99, "ms");
    out.note("traced.shadow_mismatches",
             static_cast<double>(shadowMismatch), "count");
    return out;
}

} // namespace perfbench
