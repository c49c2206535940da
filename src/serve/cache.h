#ifndef DMS_SERVE_CACHE_H
#define DMS_SERVE_CACHE_H

/**
 * @file
 * The memoizing result cache behind the compile service: a sharded
 * map from canonical request keys to single-flight entries. An
 * entry is created exactly once per key (the creator compiles; the
 * service publishes the result through the entry's promise), so
 * identical in-flight requests coalesce onto one compilation and
 * later identical requests are pure lookups.
 *
 * Keys are opaque byte strings (the service's are the compact
 * request keys of service.cc). The caller hashes each key once and
 * passes the 64-bit hash with it; the cache picks the shard and the
 * map bucket from that hash and never re-hashes the key. Any hash
 * works as long as one cache always sees the same function of the
 * key (the service uses keyHash64; the FNV tests use fnv1a64).
 * Equality is always on the full key, so hash collisions cannot
 * alias two different requests. Each resident key is stored once,
 * in its map node; the eviction order list points at the nodes.
 *
 * Capacity is enforced per shard with a pluggable eviction policy
 * (EvictPolicy) over *droppable* entries only — failed entries
 * (dead aliases of retired compiles) always go first, then ready
 * ones per policy:
 *
 *   - Fifo: drop the oldest insertion (the pre-policy behavior);
 *   - Lru:  drop the least recently *used* — every hit refreshes
 *           an entry's recency, so a hot key survives arbitrary
 *           cold churn;
 *   - Cost: drop the cheapest-to-recompute ready entry — cost is
 *           the measured compile latency the worker stamps on the
 *           entry (CacheEntry::costMs), so an expensive schedule
 *           is kept over many trivial ones.
 *
 * In-flight entries are never evicted under any policy: evicting
 * one would break the coalescing guarantee, so a shard may
 * transiently exceed its cap when everything in it is still
 * compiling. Whatever the policy, the conservation law
 * inserted == size() + evictions() + retired() holds exactly.
 */

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dms {

struct CompileResult;

/** FNV-1a over bytes, one byte per step (reference vectors). */
std::uint64_t fnv1a64(std::string_view s);

/**
 * The service's key hash: eight bytes per step, then a final
 * avalanche. Not stable across byte orders; in-process use only.
 */
std::uint64_t keyHash64(std::string_view s);

/** Which ready entry goes when a shard is over capacity. */
enum class EvictPolicy : std::uint8_t {
    Fifo, ///< oldest insertion first
    Lru,  ///< least recently used first
    Cost, ///< cheapest measured compile first
};

/** Lowercase policy name, e.g. "lru". */
const char *evictPolicyName(EvictPolicy policy);

/** Parse "fifo"/"lru"/"cost"; false on anything else. */
bool evictPolicyFromName(std::string_view name, EvictPolicy &out);

/**
 * One memo slot: a single-flight rendezvous that becomes a cached
 * result. Waiters (coalesced or hitting requests) block on the
 * shared future; the one compiling thread fulfills the promise and
 * flips ready.
 */
struct CacheEntry
{
    CacheEntry() : future(promise.get_future().share()) {}

    std::promise<std::shared_ptr<const CompileResult>> promise;
    std::shared_future<std::shared_ptr<const CompileResult>> future;
    std::atomic<bool> ready{false};

    /**
     * Set (before ready) when the compile resolved to a
     * non-retryable-as-cached outcome — a Failed/Expired/Rejected
     * result must not be served to later requests. A failed entry
     * still resolves its future (waiters already coalesced onto it
     * see the structured failure), but lookups treat it as absent
     * so the next request for the key retries the compile.
     */
    std::atomic<bool> failed{false};

    /**
     * Measured compile latency in milliseconds, stamped by the
     * worker before ready flips. The Cost eviction policy reads it
     * to keep expensive schedules resident; 0 until a compile
     * finishes (an in-flight entry is pinned anyway).
     */
    std::atomic<double> costMs{0.0};
};

/** Sharded single-flight memo map. */
class ResultCache
{
  public:
    /** How a key lookup resolved. */
    enum class Lookup : std::uint8_t {
        Hit,      ///< entry exists and its result is ready
        InFlight, ///< entry exists, compilation still running
        Inserted, ///< entry was created; the caller must compile
    };

    /**
     * @param shards   number of independent shards (>= 1)
     * @param capacity total ready-entry capacity across shards
     * @param policy   which ready entry goes when over capacity
     */
    ResultCache(int shards, int capacity,
                EvictPolicy policy = EvictPolicy::Fifo);

    /**
     * Find or create the entry for @p key, whose hash is @p hash
     * (see the file comment). @p entry is always filled on return.
     * A Hit refreshes the entry's recency under the Lru policy.
     */
    Lookup acquire(const std::string &key, std::uint64_t hash,
                   std::shared_ptr<CacheEntry> &entry);

    /**
     * Find the entry for @p key without creating one; nullptr when
     * absent *or failed* (a failed entry is logically gone — it is
     * physically reclaimed by retire/acquire/eviction). A found
     * ready entry is refreshed under Lru, exactly like acquire —
     * the raw-text fast path of the service probes its alias map
     * with this before paying for canonicalization.
     */
    std::shared_ptr<CacheEntry> find(const std::string &key,
                                     std::uint64_t hash);

    /**
     * Eagerly reclaim a failed @p entry under @p key. Erases only
     * if the resident entry *is* @p entry (identity compare): a
     * fresh same-key entry inserted by a retrying request must not
     * be clobbered. Counted under retired(), never evictions().
     */
    void retire(const std::string &key, std::uint64_t hash,
                const std::shared_ptr<CacheEntry> &entry);

    /**
     * Map @p key to an @p entry owned elsewhere (capacity-bounded,
     * same eviction policy as acquire). Used for raw-spelling
     * aliases of a canonical entry; inserting an existing key is a
     * no-op.
     */
    void insertAlias(const std::string &key, std::uint64_t hash,
                     std::shared_ptr<CacheEntry> entry);

    /** Entries currently resident (ready + in-flight). */
    std::uint64_t size() const;

    /** Ready (successful) entries evicted for capacity so far. */
    std::uint64_t evictions() const
    {
        return evictions_.load(std::memory_order_relaxed);
    }

    /** Failed entries reclaimed so far (never capacity events). */
    std::uint64_t retired() const
    {
        return retired_.load(std::memory_order_relaxed);
    }

    EvictPolicy policy() const { return policy_; }

  private:
    struct IdentityHash
    {
        size_t operator()(std::uint64_t h) const { return h; }
    };

    struct Slot
    {
        std::uint64_t hash = 0;
        std::string key; ///< the one copy of the key
        std::shared_ptr<CacheEntry> entry;
        /** This slot's position in the shard's order list. */
        std::list<Slot *>::iterator pos;
    };

    struct Shard
    {
        mutable std::mutex mu;
        /** Slots bucketed on the caller's hash, as given. */
        std::unordered_multimap<std::uint64_t, Slot, IdentityHash>
            entries;
        /**
         * Eviction scan order, front = first victim candidate.
         * Fifo: insertion order, untouched afterwards. Lru:
         * insertion order with every access splicing the key to
         * the back. Cost: insertion order too — the cost scan
         * ranks by CacheEntry::costMs and uses list position only
         * to break ties (older first).
         */
        std::list<Slot *> order;
    };

    Shard &shardOf(std::uint64_t hash);
    static Slot *findLocked(Shard &shard, const std::string &key,
                            std::uint64_t hash);
    static void insertLocked(Shard &shard, const std::string &key,
                             std::uint64_t hash,
                             std::shared_ptr<CacheEntry> entry);
    void touchLocked(Shard &shard, Slot &slot);
    void evictIfFull(Shard &shard);
    static void eraseLocked(Shard &shard, Slot *slot);

    std::vector<Shard> shards_;
    int perShardCap_;
    EvictPolicy policy_;
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> retired_{0};
};

} // namespace dms

#endif // DMS_SERVE_CACHE_H
