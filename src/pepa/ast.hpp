// Abstract syntax of PEPA, stored in a hash-consed arena.
//
// Process terms are the *states* of the derived CTMC, so structural
// equality tests and hashing must be cheap: the arena interns every node,
// making equality an integer comparison and enabling memoised semantics
// (apparent rates, one-step derivatives) keyed by node id.
//
// The arena is safe for concurrent interning and lookup.  The intern index
// is lock-striped by node hash; each stripe is an open-addressing table of
// {hash tag, id} slots (linear probing, power-of-two capacity, at most half
// full), so an interned node costs no heap allocation in the index and a
// lookup is one probe run under one uncontended stripe mutex.  Node storage
// is append-only with stable ids and addresses and lock-free reads
// (util::SegmentedVector): a `const ProcessNode&` stays valid while the
// arena grows.  The action/constant name tables publish through the same
// mechanism.  This is what lets parallel state-space exploration workers
// derive targets concurrently.
//
// Derivative targets rebuild a cooperation or hiding node with an operand
// node's own action set; cooperation_normalised()/hiding_normalised() look
// such nodes up by a view of that set and copy it only when the node is new.
//
// The grammar (paper Figure 3, sequential/concurrent levels merged into one
// node type; well-formedness checks enforce the stratification):
//
//   P ::= (alpha, r).P   prefix
//       | P + P          choice
//       | P <L> P        cooperation over action set L
//       | P / L          hiding
//       | A              constant (named definition)
//       | Stop           the inert process (also used for empty net cells)
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pepa/rate.hpp"
#include "util/segmented_vector.hpp"

namespace choreo::pepa {

using ProcessId = std::uint32_t;
using ActionId = std::uint32_t;
using ConstantId = std::uint32_t;

inline constexpr ProcessId kInvalidProcess = 0xFFFFFFFFu;
/// The silent action produced by hiding.
inline constexpr ActionId kTau = 0;

enum class Op : std::uint8_t {
  kStop,
  kPrefix,
  kChoice,
  kCooperation,
  kHiding,
  kConstant,
};

struct ProcessNode {
  Op op = Op::kStop;
  ActionId action = 0;                 ///< prefix only
  Rate rate;                           ///< prefix only
  ProcessId left = kInvalidProcess;    ///< prefix continuation / binary left
  ProcessId right = kInvalidProcess;   ///< binary right
  std::vector<ActionId> action_set;    ///< cooperation / hiding (sorted, unique)
  ConstantId constant = 0;             ///< constant only
};

class ProcessArena {
 public:
  ProcessArena();

  // --- action names -----------------------------------------------------
  /// Interns an action name; "tau" maps to kTau.
  ActionId action(std::string_view name);
  std::optional<ActionId> find_action(std::string_view name) const;
  const std::string& action_name(ActionId id) const;
  std::size_t action_count() const noexcept { return state_->action_names.size(); }

  // --- constants (named definitions) ------------------------------------
  /// Declares (or returns the existing) constant with this name.
  ConstantId declare(std::string_view name);
  std::optional<ConstantId> find_constant(std::string_view name) const;
  const std::string& constant_name(ConstantId id) const;
  bool is_defined(ConstantId id) const;
  /// Binds the body of a constant; rebinding is a model error.
  void define(ConstantId id, ProcessId body);
  /// Body of a defined constant; throws util::ModelError when undefined.
  ProcessId body(ConstantId id) const;
  std::size_t constant_count() const noexcept {
    return state_->constant_names.size();
  }

  // --- term constructors (hash-consed) -----------------------------------
  ProcessId stop();
  ProcessId prefix(ActionId action, Rate rate, ProcessId continuation);
  ProcessId choice(ProcessId left, ProcessId right);
  /// `set` is deduplicated and sorted; must not contain tau.
  ProcessId cooperation(ProcessId left, std::vector<ActionId> set, ProcessId right);
  ProcessId hiding(ProcessId process, std::vector<ActionId> set);
  /// cooperation()/hiding() for a set that is already normalised (sorted,
  /// unique, tau-free), typically another node's action_set: the node is
  /// looked up by a view of the set, which is copied only when the node is
  /// new.
  ProcessId cooperation_normalised(ProcessId left,
                                   std::span<const ActionId> set,
                                   ProcessId right);
  ProcessId hiding_normalised(ProcessId process,
                              std::span<const ActionId> set);
  ProcessId constant(ConstantId id);
  /// Convenience: constant by name (declares it when new).
  ProcessId constant(std::string_view name);

  const ProcessNode& node(ProcessId id) const;
  std::size_t node_count() const noexcept { return state_->nodes.size(); }

 private:
  /// The intern index is partitioned into this many stripes by node hash.
  static constexpr std::size_t kStripes = 64;

  /// One open-addressing slot: bits of the node's mixed hash above the
  /// stripe bits (which also pick the home slot), and the interned id.
  struct Slot {
    std::uint32_t tag = 0;
    ProcessId id = kInvalidProcess;  ///< kInvalidProcess: empty
  };

  struct Stripe {
    std::mutex mutex;
    /// Linear-probing table; its size is zero or a power of two, and it
    /// is at most half full.
    std::vector<Slot> slots;
    std::size_t count = 0;
  };

  /// A node to intern, with its action set viewed rather than owned.
  struct NodeKey {
    Op op = Op::kStop;
    ActionId action = 0;
    Rate rate;
    ProcessId left = kInvalidProcess;
    ProcessId right = kInvalidProcess;
    std::span<const ActionId> action_set;
    ConstantId constant = 0;
  };

  /// The concurrently-shared core lives behind one pointer so the arena
  /// stays movable (mutexes and atomics pin their own addresses).
  struct State {
    util::SegmentedVector<ProcessNode> nodes;
    std::array<Stripe, kStripes> stripes;

    /// Serialises name/constant registration (cold: parse time only).
    std::mutex names_mutex;
    util::SegmentedVector<std::string> action_names;
    std::unordered_map<std::string, ActionId> action_ids;
    util::SegmentedVector<std::string> constant_names;
    util::SegmentedVector<std::atomic<ProcessId>> constant_bodies;
    std::unordered_map<std::string, ConstantId> constant_ids;
  };

  ProcessId intern(const NodeKey& key);

  std::unique_ptr<State> state_;
};

/// True when `action` belongs to the sorted action set.  Inline: the
/// derive asks it for every move at every cooperation and hiding node.
inline bool set_contains(const std::vector<ActionId>& set, ActionId action) {
  return std::binary_search(set.begin(), set.end(), action);
}

/// Sorted union of two action sets.
std::vector<ActionId> set_union(const std::vector<ActionId>& a,
                                const std::vector<ActionId>& b);

/// Sorted intersection of two action sets.
std::vector<ActionId> set_intersection(const std::vector<ActionId>& a,
                                       const std::vector<ActionId>& b);

/// The set of action types occurring syntactically in `process` (through
/// constant definitions); tau excluded.  This is A(P) in the paper, used to
/// compute default cooperation sets for net places.
std::vector<ActionId> alphabet(const ProcessArena& arena, ProcessId process);

/// Static expansion: unfolds constants whose bodies are *compositions*
/// (cooperation/hiding/other constants) so that the term exposes its static
/// structure, while constants with sequential bodies (prefix/choice/stop)
/// are kept by name.  Deriving from the expanded system equation avoids a
/// spurious transient state for aliases like "System = P || P" and keeps
/// sequential positions named for the state-probability measures.
ProcessId expand_static(ProcessArena& arena, ProcessId process);

}  // namespace choreo::pepa
