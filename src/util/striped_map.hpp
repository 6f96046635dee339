// A lock-striped hash map: the exploration engine's state index.
//
// The map is partitioned into a fixed number of stripes, each an ordinary
// unordered_map behind its own mutex; a key's stripe is chosen by its hash,
// so threads working on unrelated keys almost never contend.  Value
// addresses are stable (unordered_map never relocates elements), so
// pointers returned by find() survive later inserts.  (Memo tables keyed by
// a dense node id use util::SlotArray instead.)
//
// The intended access pattern is publish-on-miss: look the key up, compute
// the value outside any stripe lock on a miss, then try_emplace it; when
// two threads race to publish, the first wins and both observe the same
// stored value (memoised computations are deterministic, so the loser's
// copy is identical and is simply discarded).
//
// Batch entry points (find_batch / try_emplace_batch) serve callers that
// touch many keys at once — the exploration engine pre-resolves a whole
// expansion chunk and publishes a whole frontier level per call.  They
// group the keys by stripe and lock each touched stripe once, so the
// per-key cost drops from one lock round-trip to a shared one.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace choreo::util {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class StripedMap {
 public:
  static constexpr std::size_t kStripes = 64;

  StripedMap() : stripes_(std::make_unique<std::array<Stripe, kStripes>>()) {}

  // Movable (the stripes live behind one pointer, so objects holding a
  // StripedMap can still be returned by value); moving while other threads
  // touch either map is a caller bug, as for any standard container.  The
  // moved-from map is left empty but fully usable — it keeps (or is given)
  // a valid stripe array rather than a null pointer.
  StripedMap(StripedMap&& other) : StripedMap() {
    stripes_.swap(other.stripes_);
  }
  StripedMap& operator=(StripedMap&& other) {
    if (this != &other) {
      stripes_.swap(other.stripes_);
      other.clear();
    }
    return *this;
  }

  /// Pointer to the stored value, or nullptr when absent.  The pointer is
  /// stable until clear().
  const Value* find(const Key& key) const {
    const Stripe& stripe = (*stripes_)[stripe_index(key)];
    std::lock_guard lock(stripe.mutex);
    auto it = stripe.map.find(key);
    return it == stripe.map.end() ? nullptr : &it->second;
  }

  /// Inserts (key, value) unless present; returns the stored value (the
  /// winner's under a race) and whether this call inserted it.
  std::pair<const Value*, bool> try_emplace(const Key& key, Value value) {
    Stripe& stripe = (*stripes_)[stripe_index(key)];
    std::lock_guard lock(stripe.mutex);
    auto [it, inserted] = stripe.map.try_emplace(key, std::move(value));
    return {&it->second, inserted};
  }

  /// Batched find: sets out[i] to the stored value for *keys[i] (nullptr
  /// when absent), visiting each touched stripe exactly once.  Safe to call
  /// concurrently with find/try_emplace from other threads; the returned
  /// pointers are stable until clear().
  void find_batch(std::span<const Key* const> keys,
                  std::span<const Value*> out) const {
    CHOREO_ASSERT(keys.size() == out.size());
    if (keys.size() < kBatchGroupingThreshold) {
      for (std::size_t i = 0; i < keys.size(); ++i) out[i] = find(*keys[i]);
      return;
    }
    const StripeOrder order(*this, keys);
    for (std::size_t s = 0; s < kStripes; ++s) {
      if (order.begin(s) == order.end(s)) continue;
      const Stripe& stripe = (*stripes_)[s];
      std::lock_guard lock(stripe.mutex);
      for (std::uint32_t o = order.begin(s); o < order.end(s); ++o) {
        const std::size_t i = order.key_at(o);
        auto it = stripe.map.find(*keys[i]);
        out[i] = it == stripe.map.end() ? nullptr : &it->second;
      }
    }
  }

  /// Batched insert of (*keys[i], values[i]) pairs, visiting each touched
  /// stripe exactly once.  Keys already present keep their stored value
  /// (try_emplace semantics, applied in batch order).
  void try_emplace_batch(std::span<const Key* const> keys,
                         std::span<const Value> values) {
    CHOREO_ASSERT(keys.size() == values.size());
    if (keys.size() < kBatchGroupingThreshold) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        try_emplace(*keys[i], values[i]);
      }
      return;
    }
    const StripeOrder order(*this, keys);
    for (std::size_t s = 0; s < kStripes; ++s) {
      if (order.begin(s) == order.end(s)) continue;
      Stripe& stripe = (*stripes_)[s];
      std::lock_guard lock(stripe.mutex);
      for (std::uint32_t o = order.begin(s); o < order.end(s); ++o) {
        const std::size_t i = order.key_at(o);
        stripe.map.try_emplace(*keys[i], values[i]);
      }
    }
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Stripe& stripe : *stripes_) {
      std::lock_guard lock(stripe.mutex);
      total += stripe.map.size();
    }
    return total;
  }

  void clear() {
    for (Stripe& stripe : *stripes_) {
      std::lock_guard lock(stripe.mutex);
      stripe.map.clear();
    }
  }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::unordered_map<Key, Value, Hash> map;
  };

  /// Below this batch size the counting sort costs more than it saves.
  static constexpr std::size_t kBatchGroupingThreshold = 8;

  /// Counting sort of a key batch by stripe: key_at(begin(s)..end(s))
  /// enumerates the positions of stripe s's keys, preserving batch order
  /// within a stripe.
  struct StripeOrder {
    std::array<std::uint32_t, kStripes + 1> bounds{};
    std::vector<std::uint32_t> ordered;

    StripeOrder(const StripedMap& map, std::span<const Key* const> keys) {
      std::vector<std::uint8_t> stripe_of(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        stripe_of[i] = static_cast<std::uint8_t>(map.stripe_index(*keys[i]));
        ++bounds[stripe_of[i] + 1];
      }
      for (std::size_t s = 0; s < kStripes; ++s) bounds[s + 1] += bounds[s];
      std::array<std::uint32_t, kStripes> next{};
      for (std::size_t s = 0; s < kStripes; ++s) next[s] = bounds[s];
      ordered.resize(keys.size());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ordered[next[stripe_of[i]]++] = static_cast<std::uint32_t>(i);
      }
    }

    std::uint32_t begin(std::size_t s) const { return bounds[s]; }
    std::uint32_t end(std::size_t s) const { return bounds[s + 1]; }
    std::size_t key_at(std::uint32_t o) const { return ordered[o]; }
  };

  std::size_t stripe_index(const Key& key) const {
    // Mix the hash before striping: unordered_map buckets use the low bits
    // too, and identity-ish hashes (integer keys) would otherwise put every
    // key of one map bucket into one stripe.
    std::size_t h = Hash{}(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h % kStripes;
  }

  std::unique_ptr<std::array<Stripe, kStripes>> stripes_;
};

}  // namespace choreo::util
