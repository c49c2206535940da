#ifndef DMS_SERVE_LOADGEN_H
#define DMS_SERVE_LOADGEN_H

/**
 * @file
 * Shared request-mix helpers for the service's load surfaces:
 * dmsd's --load mode and bench/serve_throughput drive the same
 * zipf-skewed mix (a hot set of kernels that repeats, cold
 * synthetic loops that churn) and the same multi-client hammer
 * loop, so they live here once.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "serve/net.h"
#include "serve/service.h"
#include "support/rng.h"

namespace dms {

/**
 * Zipf-weighted index picker: rank r is drawn with probability
 * proportional to 1 / (r+1)^exponent. The standard skew of a
 * serving hot set — a few keys dominate, the tail trickles.
 */
class ZipfPicker
{
  public:
    explicit ZipfPicker(size_t n, double exponent = 1.1);

    size_t pick(Rng &rng) const;
    size_t size() const { return cum_.size(); }

  private:
    std::vector<double> cum_;
    double mass_ = 0;
};

/** The standard hot set: every named kernel, serialized. */
std::vector<std::string> hotKernelTexts();

/**
 * A unique cold loop per @p index (deterministic in @p seed):
 * the churn half of the mix, never repeating, never hitting.
 */
std::string coldLoopText(std::uint64_t seed, int index);

/**
 * Client-side fault policy: bounded retry with exponential backoff
 * and deterministic jitter on retryable outcomes (Rejected and
 * Failed — transient by construction; Invalid, Quarantined and
 * Expired are not retried: the first is permanent, the second is
 * the service saying "stop", the third has no budget left).
 */
struct RetryPolicy
{
    int maxAttempts = 1;   ///< total tries; 1 disables retry
    int backoffBaseMs = 2; ///< delay before the first retry
    int backoffMaxMs = 100; ///< exponential-growth cap

    /** Per-request deadline forwarded to CompileRequest (0=none). */
    int deadlineMs = 0;

    /**
     * >= 0: submit through trySubmit() with this shed wait, so an
     * overloaded service rejects instead of blocking the client.
     * Negative keeps the blocking submit()/compile() path.
     */
    int submitWaitMs = -1;

    /** Retryable terminal statuses. */
    bool shouldRetry(CompileStatus status) const
    {
        return status == CompileStatus::Rejected ||
               status == CompileStatus::Failed;
    }

    /**
     * Backoff before retry number @p attempt (0-based):
     * min(backoffMaxMs, backoffBaseMs * 2^attempt), jittered by a
     * deterministic factor in [0.5, 1.0) drawn from @p rng.
     */
    int delayMs(int attempt, Rng &rng) const;
};

/**
 * The policy's attempt loop: call @p attempt() up to
 * policy.maxAttempts times, sleeping policy.delayMs between calls,
 * until it returns true (an outcome not worth retrying). Returns
 * the last call's verdict; @p retries, when non-null, accumulates
 * the number of extra attempts made.
 */
template <typename Attempt>
bool
retryUnderPolicy(const RetryPolicy &policy, Rng &rng,
                 Attempt &&attempt, int *retries = nullptr)
{
    const int tries = std::max(policy.maxAttempts, 1);
    for (int i = 0;; ++i) {
        if (attempt())
            return true;
        if (i + 1 >= tries)
            return false;
        if (retries != nullptr)
            ++*retries;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(policy.delayMs(i, rng)));
    }
}

/**
 * retryUnderPolicy over a connection that may drop: before each
 * call of @p attempt(error), reconnect @p net to @p host:@p port if
 * it is down. A failed reconnect still runs the attempt, which then
 * fails on the closed socket; @p error ends up with the reconnect's
 * reason in that case.
 */
template <typename Attempt>
bool
retryWithReconnect(NetClient &net, const std::string &host, int port,
                   int connectTimeoutMs, const RetryPolicy &policy,
                   Rng &rng, Attempt &&attempt, std::string &error,
                   int *retries = nullptr)
{
    return retryUnderPolicy(
        policy, rng,
        [&] {
            std::string refused;
            const bool up =
                net.connected() ||
                net.connect(host, port, connectTimeoutMs, refused);
            const bool done = attempt(error);
            if (!up)
                error = refused;
            return done;
        },
        retries);
}

/**
 * One request through the policy loop: submit (blocking or
 * shedding per the policy), await (honoring the deadline), retry
 * retryable outcomes with backoff. @p retries, when non-null,
 * accumulates the number of extra attempts made.
 */
CompileService::ResultPtr
compileWithRetry(CompileService &service, CompileRequest request,
                 const RetryPolicy &policy, Rng &rng,
                 int *retries = nullptr);

/** What one hammer run did. */
struct HammerResult
{
    int requests = 0;
    int failures = 0; ///< any terminal status other than Ok
    int retries = 0;  ///< extra attempts made by the retry policy
    double seconds = 0;

    /** Requests whose final status was the given one. */
    int
    count(CompileStatus status) const
    {
        return byStatus[static_cast<size_t>(status)];
    }

    /** Indexed by CompileStatus; sums to requests. */
    int byStatus[7] = {0, 0, 0, 0, 0, 0, 0};

    /**
     * @name Per-request latency of *this* run (milliseconds)
     * Measured client-side around each compile(), so a phase's
     * percentiles are its own — unlike ServeStats, which spans
     * the service's whole lifetime.
     */
    /// @{
    double p50Ms = 0;
    double p90Ms = 0;
    double p99Ms = 0;
    double maxMs = 0;
    /// @}

    double
    rps() const
    {
        return seconds > 0 ? requests / seconds : 0;
    }
};

/**
 * Fire @p total requests at @p service from @p clients threads,
 * each request's loop text produced by @p makeLoop(i, rng) (i is
 * the global request number; rng is per-client, seeded from
 * @p seed). Every request uses @p machineText, @p scheduler and
 * the regalloc stage — the standard serving configuration.
 * @p policy adds the client-side fault loop; the default is the
 * pre-fault-tolerance behavior (blocking submit, no retries).
 */
HammerResult hammerService(
    CompileService &service, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy = {});

/**
 * The same hammer loop over sockets: @p clients threads, each with
 * its own NetClient connection to @p host:@p port, firing
 * @p total requests through the wire protocol (serve/net.h).
 * Latency is measured client-side around each round trip and
 * merged exactly like hammerService. Transport failures —
 * connection refused mid-run, EOF from an injected
 * serve.net.* fault, a garbled response — are synthesized as
 * retryable Failed results and the connection is re-established,
 * so every request still resolves to exactly one terminal status.
 * @p policy's submitWaitMs is ignored (shedding is the server's
 * call in network mode); its deadline rides in each request.
 */
HammerResult hammerNetwork(
    const std::string &host, int port, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy = {}, int connectTimeoutMs = 5000);

} // namespace dms

#endif // DMS_SERVE_LOADGEN_H
