#include "serve/cache.h"

#include <algorithm>
#include <cstring>

#include "support/diag.h"

namespace dms {

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
keyHash64(std::string_view s)
{
    constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
    std::uint64_t h = s.size() * kMul;
    const char *p = s.data();
    size_t n = s.size();
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t w;
        std::memcpy(&w, p, 8);
        h = (h ^ w) * kMul;
        h ^= h >> 29;
    }
    if (n > 0) {
        std::uint64_t w = 0;
        std::memcpy(&w, p, n);
        h = (h ^ w) * kMul;
    }
    // MurmurHash3's fmix64: every input bit reaches every output
    // bit, so the shard (hash % shards) and bucket picks are fair.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

const char *
evictPolicyName(EvictPolicy policy)
{
    switch (policy) {
    case EvictPolicy::Fifo:
        return "fifo";
    case EvictPolicy::Lru:
        return "lru";
    case EvictPolicy::Cost:
        return "cost";
    }
    return "fifo";
}

bool
evictPolicyFromName(std::string_view name, EvictPolicy &out)
{
    if (name == "fifo") {
        out = EvictPolicy::Fifo;
        return true;
    }
    if (name == "lru") {
        out = EvictPolicy::Lru;
        return true;
    }
    if (name == "cost") {
        out = EvictPolicy::Cost;
        return true;
    }
    return false;
}

ResultCache::ResultCache(int shards, int capacity,
                         EvictPolicy policy)
    : shards_(static_cast<size_t>(std::max(shards, 1))),
      policy_(policy)
{
    int n = static_cast<int>(shards_.size());
    perShardCap_ = std::max(1, (std::max(capacity, 1) + n - 1) / n);
}

ResultCache::Shard &
ResultCache::shardOf(std::uint64_t hash)
{
    return shards_[hash % shards_.size()];
}

ResultCache::Slot *
ResultCache::findLocked(Shard &shard, const std::string &key,
                        std::uint64_t hash)
{
    const auto range = shard.entries.equal_range(hash);
    for (auto it = range.first; it != range.second; ++it)
        if (it->second.key == key)
            return &it->second;
    return nullptr;
}

/** Add a slot for @p key at the back of the order list. */
void
ResultCache::insertLocked(Shard &shard, const std::string &key,
                          std::uint64_t hash,
                          std::shared_ptr<CacheEntry> entry)
{
    Slot &slot = shard.entries.emplace(hash, Slot())->second;
    slot.hash = hash;
    slot.key = key;
    slot.entry = std::move(entry);
    slot.pos = shard.order.insert(shard.order.end(), &slot);
}

/** Erase @p slot from both the map and the order list. */
void
ResultCache::eraseLocked(Shard &shard, Slot *slot)
{
    const auto range = shard.entries.equal_range(slot->hash);
    for (auto it = range.first; it != range.second; ++it) {
        if (&it->second == slot) {
            shard.order.erase(slot->pos);
            shard.entries.erase(it);
            return;
        }
    }
    DMS_ASSERT(false, "cache erase of absent slot");
}

/**
 * Refresh @p slot's recency. Only the Lru policy keeps the order
 * list access-ordered; Fifo and Cost leave it in insertion order
 * (Cost ranks by measured latency and uses position only as a
 * tiebreak). Caller holds the shard lock.
 */
void
ResultCache::touchLocked(Shard &shard, Slot &slot)
{
    if (policy_ != EvictPolicy::Lru)
        return;
    shard.order.splice(shard.order.end(), shard.order, slot.pos);
}

/**
 * Over capacity: drop one droppable entry. Failed entries (dead
 * aliases of retired compiles, counted under retired()) always go
 * first regardless of policy — they are garbage, not cached value.
 * Otherwise the victim among ready entries is chosen by policy:
 * Fifo/Lru take the front of the order list (insertion order vs
 * access order), Cost scans for the minimum measured compile
 * latency. In-flight entries are pinned — evicting one would let a
 * duplicate request start a second compilation of the same key.
 * Caller holds the shard lock.
 */
void
ResultCache::evictIfFull(Shard &shard)
{
    if (shard.entries.size() < static_cast<size_t>(perShardCap_))
        return;

    Slot *victim = nullptr;
    double victimCost = 0.0;
    for (Slot *slot : shard.order) {
        const CacheEntry &e = *slot->entry;
        if (e.failed.load(std::memory_order_acquire)) {
            eraseLocked(shard, slot);
            retired_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (!e.ready.load(std::memory_order_acquire))
            continue; // in-flight: pinned
        if (policy_ != EvictPolicy::Cost) {
            // Fifo and Lru both want the frontmost droppable
            // entry; the policies differ only in how accesses
            // reorder the list.
            victim = slot;
            break;
        }
        double cost = e.costMs.load(std::memory_order_relaxed);
        if (victim == nullptr || cost < victimCost) {
            victim = slot;
            victimCost = cost;
        }
    }
    if (victim == nullptr)
        return; // everything in-flight; transiently over cap
    eraseLocked(shard, victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
}

ResultCache::Lookup
ResultCache::acquire(const std::string &key, std::uint64_t hash,
                     std::shared_ptr<CacheEntry> &entry)
{
    Shard &shard = shardOf(hash);
    std::lock_guard<std::mutex> lock(shard.mu);

    if (Slot *slot = findLocked(shard, key, hash)) {
        if (slot->entry->failed.load(std::memory_order_acquire)) {
            // Lazy reclamation: the resident entry's compile
            // failed, so this request retries with a fresh entry.
            eraseLocked(shard, slot);
            retired_.fetch_add(1, std::memory_order_relaxed);
        } else {
            entry = slot->entry;
            touchLocked(shard, *slot);
            return entry->ready.load(std::memory_order_acquire)
                       ? Lookup::Hit
                       : Lookup::InFlight;
        }
    }

    evictIfFull(shard);
    entry = std::make_shared<CacheEntry>();
    insertLocked(shard, key, hash, entry);
    return Lookup::Inserted;
}

std::shared_ptr<CacheEntry>
ResultCache::find(const std::string &key, std::uint64_t hash)
{
    Shard &shard = shardOf(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    Slot *slot = findLocked(shard, key, hash);
    if (slot == nullptr ||
        slot->entry->failed.load(std::memory_order_acquire))
        return nullptr;
    touchLocked(shard, *slot);
    return slot->entry;
}

void
ResultCache::retire(const std::string &key, std::uint64_t hash,
                    const std::shared_ptr<CacheEntry> &entry)
{
    Shard &shard = shardOf(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    Slot *slot = findLocked(shard, key, hash);
    // Identity compare: a retrying request may already have
    // replaced the slot with a fresh entry we must not clobber
    // (and acquire may have lazily reclaimed this one already).
    if (slot == nullptr || slot->entry != entry)
        return;
    eraseLocked(shard, slot);
    retired_.fetch_add(1, std::memory_order_relaxed);
}

void
ResultCache::insertAlias(const std::string &key, std::uint64_t hash,
                         std::shared_ptr<CacheEntry> entry)
{
    Shard &shard = shardOf(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (findLocked(shard, key, hash) != nullptr)
        return;
    evictIfFull(shard);
    insertLocked(shard, key, hash, std::move(entry));
}

std::uint64_t
ResultCache::size() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        total += shard.entries.size();
    }
    return total;
}

} // namespace dms
