#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "serve/net.h"
#include "support/diag.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace dms {

ZipfPicker::ZipfPicker(size_t n, double exponent) : cum_(n)
{
    for (size_t i = 0; i < n; ++i) {
        mass_ += 1.0 /
                 std::pow(static_cast<double>(i) + 1.0, exponent);
        cum_[i] = mass_;
    }
}

size_t
ZipfPicker::pick(Rng &rng) const
{
    double u = rng.uniform() * mass_;
    size_t i = 0;
    while (i + 1 < cum_.size() && cum_[i] < u)
        ++i;
    return i;
}

std::vector<std::string>
hotKernelTexts()
{
    std::vector<std::string> out;
    for (const Loop &k : namedKernels())
        out.push_back(loopToText(k));
    return out;
}

std::string
coldLoopText(std::uint64_t seed, int index)
{
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(index) * 31337));
    SynthParams params;
    return loopToText(synthesizeLoop(rng, params, index));
}

int
RetryPolicy::delayMs(int attempt, Rng &rng) const
{
    double base = static_cast<double>(std::max(backoffBaseMs, 0));
    for (int i = 0; i < attempt && base < backoffMaxMs; ++i)
        base *= 2;
    base = std::min(base, static_cast<double>(
                              std::max(backoffMaxMs, 0)));
    // Deterministic jitter in [0.5, 1.0): spreads synchronized
    // retry herds without losing reproducibility per client rng.
    return static_cast<int>(base * (0.5 + rng.uniform() * 0.5));
}

namespace {

/**
 * Wait a ticket out, honoring the deadline the same way
 * CompileService::compile does: fire the compile's cancel token
 * and synthesize Expired when the budget runs out first.
 */
CompileService::ResultPtr
awaitTicket(CompileService::Ticket &ticket, int deadlineMs,
            std::chrono::steady_clock::time_point t0)
{
    if (deadlineMs > 0 &&
        ticket.future.wait_until(
            t0 + std::chrono::milliseconds(deadlineMs)) ==
            std::future_status::timeout) {
        if (ticket.cancel != nullptr)
            ticket.cancel->cancel();
        auto expired = std::make_shared<CompileResult>();
        expired->status = CompileStatus::Expired;
        expired->parsed = true;
        expired->error =
            strfmt("deadline of %d ms exceeded", deadlineMs);
        return expired;
    }
    return ticket.future.get();
}

} // namespace

CompileService::ResultPtr
compileWithRetry(CompileService &service, CompileRequest request,
                 const RetryPolicy &policy, Rng &rng, int *retries)
{
    request.deadlineMs = policy.deadlineMs;
    CompileService::ResultPtr result;
    retryUnderPolicy(
        policy, rng,
        [&] {
            auto t0 = std::chrono::steady_clock::now();
            if (policy.submitWaitMs >= 0) {
                CompileService::Ticket ticket =
                    service.trySubmit(request, policy.submitWaitMs);
                result = awaitTicket(ticket, policy.deadlineMs, t0);
            } else {
                result = service.compile(request);
            }
            return !policy.shouldRetry(result->status);
        },
        retries);
    return result;
}

HammerResult
hammerService(
    CompileService &service, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy)
{
    std::atomic<int> dispatched{0};
    std::atomic<int> failures{0};
    std::atomic<int> retries{0};
    std::atomic<int> by_status[7] = {};
    std::mutex latency_mu;
    Samples latencies;
    auto t0 = std::chrono::steady_clock::now();
    auto client = [&](int tid) {
        Rng rng(seed + static_cast<std::uint64_t>(tid) * 104729);
        Samples local;
        int local_retries = 0;
        while (true) {
            int i = dispatched.fetch_add(1);
            if (i >= total)
                break;
            CompileRequest req;
            req.loopText = makeLoop(i, rng);
            req.machineText = machineText;
            req.options.scheduler = scheduler;
            req.options.regalloc = true;
            auto r0 = std::chrono::steady_clock::now();
            CompileService::ResultPtr result = compileWithRetry(
                service, req, policy, rng, &local_retries);
            local.add(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - r0)
                          .count());
            by_status[static_cast<size_t>(result->status)]
                .fetch_add(1);
            if (!result->parsed || !result->ok)
                failures.fetch_add(1);
        }
        retries.fetch_add(local_retries);
        std::lock_guard<std::mutex> lock(latency_mu);
        latencies.merge(local);
    };
    std::vector<std::thread> threads;
    int n = std::max(clients, 1);
    threads.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t)
        threads.emplace_back(client, t);
    for (std::thread &t : threads)
        t.join();

    HammerResult out;
    out.requests = total;
    out.failures = failures.load();
    out.retries = retries.load();
    for (size_t s = 0; s < 7; ++s)
        out.byStatus[s] = by_status[s].load();
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.p50Ms = latencies.percentile(50);
    out.p90Ms = latencies.percentile(90);
    out.p99Ms = latencies.percentile(99);
    out.maxMs = latencies.max();
    return out;
}

HammerResult
hammerNetwork(
    const std::string &host, int port, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy, int connectTimeoutMs)
{
    std::atomic<int> dispatched{0};
    std::atomic<int> failures{0};
    std::atomic<int> retries{0};
    std::atomic<int> by_status[7] = {};
    std::mutex latency_mu;
    Samples latencies;
    auto t0 = std::chrono::steady_clock::now();
    auto client = [&](int tid) {
        Rng rng(seed + static_cast<std::uint64_t>(tid) * 104729);
        Samples local;
        int local_retries = 0;
        NetClient net;
        std::string err;
        net.connect(host, port, connectTimeoutMs, err);
        while (true) {
            int i = dispatched.fetch_add(1);
            if (i >= total)
                break;
            CompileRequest req;
            req.loopText = makeLoop(i, rng);
            req.machineText = machineText;
            req.options.scheduler = scheduler;
            req.options.regalloc = true;
            req.deadlineMs = policy.deadlineMs;
            auto r0 = std::chrono::steady_clock::now();
            CompileResult result;
            retryWithReconnect(
                net, host, port, connectTimeoutMs, policy, rng,
                [&](std::string &error) {
                    if (!net.compile(req, result, error)) {
                        // Transport failure (refused, EOF from an
                        // injected serve.net.* fault, garbled
                        // response): a retryable Failed, with a
                        // reconnect before the next attempt.
                        result = CompileResult();
                        result.status = CompileStatus::Failed;
                        result.parsed = true;
                        result.error = "transport: " + error;
                    }
                    return !policy.shouldRetry(result.status);
                },
                err, &local_retries);
            local.add(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - r0)
                          .count());
            by_status[static_cast<size_t>(result.status)]
                .fetch_add(1);
            if (!result.parsed || !result.ok)
                failures.fetch_add(1);
        }
        retries.fetch_add(local_retries);
        std::lock_guard<std::mutex> lock(latency_mu);
        latencies.merge(local);
    };
    std::vector<std::thread> threads;
    int n = std::max(clients, 1);
    threads.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t)
        threads.emplace_back(client, t);
    for (std::thread &t : threads)
        t.join();

    HammerResult out;
    out.requests = total;
    out.failures = failures.load();
    out.retries = retries.load();
    for (size_t s = 0; s < 7; ++s)
        out.byStatus[s] = by_status[s].load();
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    out.p50Ms = latencies.percentile(50);
    out.p90Ms = latencies.percentile(90);
    out.p99Ms = latencies.percentile(99);
    out.maxMs = latencies.max();
    return out;
}

} // namespace dms
