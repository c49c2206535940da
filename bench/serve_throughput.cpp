/**
 * @file
 * Compile-service throughput benchmark: hammers a CompileService
 * with a zipf-skewed request mix — a small hot set of kernels that
 * repeats and a churn of cold synthetic loops that never does —
 * and reports cold vs warm requests/sec, hit rate and latency
 * percentiles in BENCH_serve.json.
 *
 * Phases:
 *   cold   every request unique (fresh synth loops): the service
 *          at its worst, one full pipeline run per request;
 *          repeated kPhaseReps times, each on a fresh service;
 *   warm   the hot set replayed after priming: every request a
 *          cache hit; repeated kPhaseReps times;
 *   mixed  the zipf mix from concurrent clients: the serving
 *          steady state, with hit rate and p50/p99 latency.
 *
 *   network the same mix through the TCP front-end (serve/net.h):
 *          a loopback NetServer on an ephemeral port, hammered by
 *          socket clients at several client counts — rps, hit
 *          rate, p50/p99 and mean request-line size per point,
 *          the b_eff-style sweep of the wire.
 *
 * Knobs: DMS_SUITE_COUNT (cold pool size, default 200),
 * DMS_SERVE_CLIENTS (client threads, default 4),
 * DMS_SERVE_MIN_SPEEDUP (gate: warm rps must be at least this
 * multiple of cold rps, default 10; the acceptance floor).
 *
 * Regression gate: bench/serve_gate.py runs two builds of this
 * binary alternately and compares their median warm and cold rps.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "eval/runner.h"
#include "machine/desc.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/service.h"
#include "support/diag.h"
#include "support/stats.h"
#include "support/faultinject.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace {

using namespace dms;

/** Timed repetitions of the cold and warm phases. */
constexpr int kPhaseReps = 15;

/** Median and range of one phase's per-repetition rps. */
struct PhaseRps
{
    double median = 0;
    double min = 0;
    double max = 0;
};

PhaseRps
summarize(const std::vector<double> &rps)
{
    Samples s;
    for (double v : rps)
        s.add(v);
    return {s.percentile(50), s.percentile(0), s.max()};
}

/** One network sweep point. */
struct NetPoint
{
    int clients = 0;
    int requests = 0;
    double rps = 0;
    double hitRate = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    double msgBytes = 0; ///< mean request-line size on the wire
};

} // namespace

int
main()
{
    using namespace dms;
    const int cold_pool = suiteCountFromEnv(200);
    const int clients = envInt("DMS_SERVE_CLIENTS", 4);
    const int min_speedup = envInt("DMS_SERVE_MIN_SPEEDUP", 10);
    constexpr std::uint64_t kSeed = 0x5e7e5e7eULL;

    const std::string machine_text =
        machineToText(MachineModel::clusteredRing(4));

    // Cold pool: unique synthetic loops, serialized up front so
    // the timed phases measure the service, not the generator.
    std::vector<std::string> cold_texts;
    cold_texts.reserve(static_cast<size_t>(cold_pool));
    for (int i = 0; i < cold_pool; ++i)
        cold_texts.push_back(coldLoopText(kSeed, i));

    // Hot set: the named kernels under zipf weights (rank^-1.1).
    const std::vector<std::string> hot_texts = hotKernelTexts();
    const ZipfPicker zipf(hot_texts.size());

    std::printf("serve_throughput: %zu cold loops, %zu hot "
                "kernels, %d clients\n",
                cold_texts.size(), hot_texts.size(), clients);

    // --- cold: every request unique, a fresh service per rep ---
    const int cold_requests = static_cast<int>(cold_texts.size());
    std::vector<double> cold_reps;
    for (int rep = 0; rep < kPhaseReps; ++rep) {
        CompileService service;
        HammerResult cold = hammerService(
            service, cold_requests, clients, machine_text, "dms",
            kSeed, [&](int i, Rng &) -> std::string {
                return cold_texts[static_cast<size_t>(i)];
            });
        ServeStats s = service.stats();
        DMS_ASSERT(s.hits == 0, "cold phase hit the cache (%llu)",
                   static_cast<unsigned long long>(s.hits));
        cold_reps.push_back(cold.rps());
    }
    const PhaseRps cold = summarize(cold_reps);
    const double cold_rps = cold.median;
    std::printf("cold: %d requests x %d reps, median %.0f req/s "
                "(min %.0f, max %.0f)\n",
                cold_requests, kPhaseReps, cold_rps, cold.min,
                cold.max);

    // --- warm + mixed share a service ---------------------------
    CompileService service;

    // Prime the hot set, then replay: every timed request a hit.
    for (const std::string &t : hot_texts) {
        CompileRequest req;
        req.loopText = t;
        req.machineText = machine_text;
        req.options.scheduler = "dms";
        req.options.regalloc = true;
        service.compile(req);
    }
    const int warm_requests = std::max(2000, cold_requests * 4);
    std::vector<double> warm_reps;
    for (int rep = 0; rep < kPhaseReps; ++rep) {
        HammerResult warm = hammerService(
            service, warm_requests, clients, machine_text, "dms",
            kSeed + 1, [&](int, Rng &rng) -> std::string {
                return hot_texts[zipf.pick(rng)];
            });
        warm_reps.push_back(warm.rps());
    }
    const PhaseRps warm = summarize(warm_reps);
    const double warm_rps = warm.median;
    std::printf("warm: %d requests x %d reps, median %.0f req/s "
                "(min %.0f, max %.0f; %.1fx cold)\n",
                warm_requests, kPhaseReps, warm_rps, warm.min,
                warm.max, warm_rps / cold_rps);

    // --- mixed: the zipf steady state with cold churn -----------
    // Phase-local numbers: hit rate from the stats delta across
    // the hammer, latency percentiles measured client-side inside
    // it — the service's own ServeStats span its whole lifetime
    // (prime + warm included) and would overstate both.
    const ServeStats before = service.stats();
    const int mixed_requests = cold_requests * 2;
    HammerResult mixed_run = hammerService(
        service, mixed_requests, clients, machine_text, "dms",
        kSeed + 2, [&](int i, Rng &rng) -> std::string {
            if (rng.range(1, 100) <= 75)
                return hot_texts[zipf.pick(rng)];
            return coldLoopText(kSeed ^ 0xc01dULL, i);
        });
    const ServeStats after = service.stats();
    const std::uint64_t mixed_hits =
        (after.hits - before.hits) +
        (after.coalesced - before.coalesced);
    const std::uint64_t mixed_coalesced =
        after.coalesced - before.coalesced;
    const double mixed_hit_rate =
        static_cast<double>(mixed_hits) /
        static_cast<double>(mixed_requests);
    double mixed_rps = mixed_run.rps();
    std::printf("mixed: %d requests in %.3f s = %.0f req/s, "
                "hit rate %.1f%%, %llu coalesced, p50 %.3f ms, "
                "p99 %.3f ms\n",
                mixed_run.requests, mixed_run.seconds, mixed_rps,
                mixed_hit_rate * 100.0,
                static_cast<unsigned long long>(mixed_coalesced),
                mixed_run.p50Ms, mixed_run.p99Ms);

    // --- degraded: the chaos regime, measured not feared --------
    // A fresh service with a deliberately small queue, faults
    // armed at the serve and pipeline sites, clients running the
    // full retry/shed/deadline loop — the b_eff philosophy:
    // overloaded operation is a measured regime, not an error.
    double degraded_rps = 0;
    double shed_rate = 0;
    std::uint64_t injected = 0;
    HammerResult degraded;
    ServeStats degraded_stats;
    {
        ServeOptions dopts;
        dopts.queueDepth = 8;
        CompileService dservice(dopts);
        FaultPlan plan;
        std::string perr;
        bool plan_ok = plan.parse(
            "serve.worker.compile:0.15:1337,pipeline.*:0.05:42",
            perr);
        DMS_ASSERT(plan_ok, "bad bench fault plan: %s",
                   perr.c_str());
        RetryPolicy rp;
        rp.maxAttempts = 3;
        rp.backoffBaseMs = 1;
        rp.backoffMaxMs = 8;
        rp.submitWaitMs = 1;
        armFaults(std::move(plan));
        degraded = hammerService(
            dservice, mixed_requests, clients, machine_text,
            "dms", kSeed + 3,
            [&](int i, Rng &rng) -> std::string {
                if (rng.range(1, 100) <= 75)
                    return hot_texts[zipf.pick(rng)];
                return coldLoopText(kSeed ^ 0xfa017ULL, i);
            },
            rp);
        injected = faultsInjected();
        disarmFaults();
        degraded_stats = dservice.stats();
        degraded_rps = degraded.rps();
        shed_rate = degraded_stats.requests > 0
                        ? static_cast<double>(degraded_stats.shed) /
                              static_cast<double>(
                                  degraded_stats.requests)
                        : 0.0;
        std::printf(
            "degraded: %d requests in %.3f s = %.0f req/s, "
            "%llu injected, shed rate %.1f%%, %d retries, "
            "p99 %.3f ms\n",
            degraded.requests, degraded.seconds, degraded_rps,
            static_cast<unsigned long long>(injected),
            shed_rate * 100.0, degraded.retries, degraded.p99Ms);
    }

    // --- network: the same mix through the TCP front-end --------
    // One loopback daemon, swept over client counts; hit rate and
    // mean request-line size come from the server's own counter
    // deltas, latency is measured client-side per round trip.
    std::vector<NetPoint> net_points;
    {
        CompileService nservice;
        NetServer server(nservice);
        std::string nerr;
        bool net_up = server.start(nerr);
        DMS_ASSERT(net_up, "network phase: %s", nerr.c_str());
        const int sweep[] = {1, std::max(clients, 2)};
        const int net_requests = std::max(400, cold_requests);
        for (size_t pt = 0; pt < 2; ++pt) {
            const int nc = sweep[pt];
            const ServeStats before = server.stats();
            HammerResult run = hammerNetwork(
                "127.0.0.1", server.port(), net_requests, nc,
                machine_text, "dms",
                kSeed + 40 + static_cast<std::uint64_t>(nc),
                [&](int i, Rng &rng) -> std::string {
                    if (rng.range(1, 100) <= 75)
                        return hot_texts[zipf.pick(rng)];
                    return coldLoopText(
                        kSeed ^ (0xbeefULL + pt), i);
                });
            const ServeStats after = server.stats();
            NetPoint point;
            point.clients = nc;
            point.requests = run.requests;
            point.rps = run.rps();
            point.hitRate =
                static_cast<double>((after.hits - before.hits) +
                                    (after.coalesced -
                                     before.coalesced)) /
                static_cast<double>(std::max(run.requests, 1));
            point.p50Ms = run.p50Ms;
            point.p99Ms = run.p99Ms;
            const std::uint64_t line_count =
                after.netRequests - before.netRequests;
            point.msgBytes =
                line_count > 0
                    ? static_cast<double>(after.netBytesIn -
                                          before.netBytesIn) /
                          static_cast<double>(line_count)
                    : 0.0;
            std::printf(
                "network: %d clients, %d requests in %.3f s = "
                "%.0f req/s, hit rate %.1f%%, p50 %.3f ms, "
                "p99 %.3f ms, %.0f B/req\n",
                nc, run.requests, run.seconds, point.rps,
                point.hitRate * 100.0, point.p50Ms, point.p99Ms,
                point.msgBytes);
            net_points.push_back(point);
        }
        server.stop();
    }

    // --- stats snapshot cost: the observability hot path --------
    // stats() is the ServeStats view of a metrics snapshot:
    // relaxed atomic loads plus a histogram sweep.
    // Measure it against the design it replaced — a mutex-guarded
    // Samples store whose snapshot locks and copies every recorded
    // latency — rebuilt here at this run's real sample count, so
    // the JSON records what polling a loaded daemon costs.
    double snapshot_ns = 0;
    double snapshot_mutex_ns = 0;
    {
        constexpr int kIters = 20000;
        volatile std::uint64_t sink = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kIters; ++i)
            sink = sink + service.stats().requests;
        auto t1 = std::chrono::steady_clock::now();
        snapshot_ns =
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count() /
            kIters;

        Samples old_store;
        const std::uint64_t recorded =
            service.stats().latencySamples;
        for (std::uint64_t i = 0; i < recorded; ++i)
            old_store.add(static_cast<double>(i % 97));
        std::mutex old_mutex;
        t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kIters; ++i) {
            std::lock_guard<std::mutex> lock(old_mutex);
            Samples copy = old_store;
            sink = sink + copy.count();
        }
        t1 = std::chrono::steady_clock::now();
        snapshot_mutex_ns =
            std::chrono::duration<double, std::nano>(t1 - t0)
                .count() /
            kIters;
        std::printf("stats snapshot: %.0f ns atomic vs %.0f ns "
                    "mutex+copy (%llu samples)\n",
                    snapshot_ns, snapshot_mutex_ns,
                    static_cast<unsigned long long>(recorded));
    }

    std::string json = "{";
    json += "\"bench\":\"serve_throughput\",";
    json += strfmt("\"clients\":%d,", clients);
    json += strfmt("\"workers\":%d,", service.workers());
    json += strfmt("\"hot_kernels\":%zu,", hot_texts.size());
    json += strfmt("\"reps\":%d,", kPhaseReps);
    json += strfmt("\"cold\":{\"requests\":%d,\"rps\":%.1f,"
                   "\"rps_min\":%.1f,\"rps_max\":%.1f},",
                   cold_requests, cold_rps, cold.min, cold.max);
    json += strfmt("\"warm\":{\"requests\":%d,\"rps\":%.1f,"
                   "\"rps_min\":%.1f,\"rps_max\":%.1f},",
                   warm_requests, warm_rps, warm.min, warm.max);
    json += strfmt(
        "\"mixed\":{\"requests\":%d,\"rps\":%.1f,"
        "\"hit_rate\":%.4f,\"coalesced\":%llu,"
        "\"p50_ms\":%.4f,\"p90_ms\":%.4f,\"p99_ms\":%.4f},",
        mixed_run.requests, mixed_rps, mixed_hit_rate,
        static_cast<unsigned long long>(mixed_coalesced),
        mixed_run.p50Ms, mixed_run.p90Ms, mixed_run.p99Ms);
    json += strfmt(
        "\"degraded\":{\"requests\":%d,\"rps\":%.1f,"
        "\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"shed_rate\":%.4f,"
        "\"injected\":%llu,\"failed\":%llu,\"expired\":%llu,"
        "\"quarantined\":%llu,\"retries\":%d},",
        degraded.requests, degraded_rps, degraded.p50Ms,
        degraded.p99Ms, shed_rate,
        static_cast<unsigned long long>(injected),
        static_cast<unsigned long long>(degraded_stats.failed),
        static_cast<unsigned long long>(degraded_stats.expired),
        static_cast<unsigned long long>(
            degraded_stats.quarantined),
        degraded.retries);
    json += "\"network\":[";
    for (size_t pt = 0; pt < net_points.size(); ++pt) {
        const NetPoint &p = net_points[pt];
        json += strfmt(
            "%s{\"clients\":%d,\"requests\":%d,\"rps\":%.1f,"
            "\"hit_rate\":%.4f,\"p50_ms\":%.4f,\"p99_ms\":%.4f,"
            "\"msg_bytes\":%.1f}",
            pt == 0 ? "" : ",", p.clients, p.requests, p.rps,
            p.hitRate, p.p50Ms, p.p99Ms, p.msgBytes);
    }
    json += "],";
    json += strfmt("\"stats_snapshot_ns\":%.1f,", snapshot_ns);
    json += strfmt("\"stats_snapshot_mutex_ns\":%.1f,",
                   snapshot_mutex_ns);
    json += strfmt("\"warm_vs_cold\":%.1f}",
                   warm_rps / cold_rps);

    const char *path = "BENCH_serve.json";
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("cannot write %s", path);
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    inform("wrote %s", path);

    if (warm_rps < cold_rps * min_speedup) {
        std::fprintf(stderr,
                     "FAIL: warm %.0f req/s is below %dx cold "
                     "%.0f req/s\n",
                     warm_rps, min_speedup, cold_rps);
        return 1;
    }
    std::printf("gate: warm/cold = %.1fx (>= %dx) ok\n",
                warm_rps / cold_rps, min_speedup);

    return 0;
}
