// Structure-sharing rate rebinding: re-evaluate a PEPA model at new rate
// values without re-parsing and — crucially — without re-deriving its state
// space.
//
// Rates are baked into hash-consed process terms, so "changing a rate"
// means interning new terms.  What stays invariant is the *shape* of the
// derivation graph: which transitions exist depends only on the model's
// syntax and on the active/passive kind of each rate, never on the positive
// value of an active rate.  The rebinder exploits this:
//
//   * The parser records a PrefixRateTag for every prefix whose rate was
//     written as a single scaled parameter ("r", "2*r").  A rebinder checks
//     the swept parameters resolve to clean tags (no compound expressions,
//     no derived parameters, no hash-consing conflicts) and refuses
//     otherwise — a wrong silent rebind would be a corrupted analysis.
//
//   * Point::moves() re-runs the SOS over the *base* terms with the point's
//     values substituted into tagged prefix rates, computing only the
//     (action, rate) payload — no new term is ever interned, so evaluating
//     a point is pure arithmetic over the existing DAG.  Because it is the
//     same syntax-directed recursion that derived the base space, the moves
//     of a state align one-to-one (same order, same multiplicity) with the
//     base state's transition row; the sweep runner overwrites just the
//     rates of the derived transition system (runner.cpp).  The walk's
//     memo is flat: every node's moves are a [begin, end) range of one
//     buffer, a constant shares its body's range, and apparent rates are
//     kept only for the (node, action) pairs the walk asks for.
//
//   * Point::term() additionally offers a full structural remap — fresh
//     terms with substituted rates, affected constants freshly declared per
//     point ("Server@sw3") with the mapping recorded *before* the body is
//     remapped so recursive definitions terminate.  Backends that need an
//     actual process term per point (the fluid ODE translation) use this;
//     the exact backend never pays for it.
//
// The module also content-addresses models: structure_fingerprint() hashes
// the rate-stripped model (the identity shared by every point of a sweep)
// and RateRebinder::rate_fingerprint() hashes the full rate payload at one
// point — together they key per-point service cache entries.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pepa/model.hpp"

namespace choreo::sweep {

/// FNV-1a hash of the rate-stripped model: operators, action and constant
/// names, cooperation/hiding sets and each rate's active/passive kind, but
/// no rate values.  Every point of a sweep shares this fingerprint; models
/// differing only in rate values collide on purpose.
std::uint64_t structure_fingerprint(pepa::Model& model);

/// One enabled activity of a base term at a sweep point: the action and the
/// substituted rate, in the exact emission order of Semantics::derivatives
/// on that term.
struct RatedMove {
  pepa::ActionId action;
  pepa::Rate rate;
};

class RateRebinder {
 public:
  /// Prepares to sweep `parameters` of `model`.  Throws util::ModelError
  /// when a name is not a parameter, is opaque (used in a compound rate
  /// expression, feeds a derived parameter, or lost its provenance to
  /// hash-consing), or never appears as a prefix rate.  The model must
  /// outlive the rebinder; its arena is mutated by remapping.
  RateRebinder(pepa::Model& model, std::vector<std::string> parameters);

  pepa::Model& model() noexcept { return model_; }
  const std::vector<std::string>& parameters() const noexcept {
    return parameters_;
  }
  /// The parameters' values in the base model, in parameters() order.
  const std::vector<double>& base_values() const noexcept {
    return base_values_;
  }
  /// Cached structure_fingerprint() of the model.
  std::uint64_t structure() const noexcept { return structure_; }

  /// FNV-1a hash of the model's full rate payload with `values` substituted
  /// into the swept prefixes — the per-point complement of structure().
  std::uint64_t rate_fingerprint(std::span<const double> values) const;

  /// One sweep point's remapping context.  Not thread-safe; create one per
  /// evaluation task.  Memoises each base node's moves as a [begin, end)
  /// range of one flat move buffer (a constant aliases its body's range),
  /// the apparent rates of the (node, action) pairs the walk reaches, and
  /// the term and constant mappings, so shared subterms are visited once.
  class Point {
   public:
    /// The moves of a base term with this point's values substituted — the
    /// rate payload of Semantics::derivatives(base) recomputed arithmetically
    /// over the base DAG, without interning any term.  The span stays valid
    /// until the next moves() call on this point.  Only call after the base
    /// model has been derived (derivation validates guardedness; this walk
    /// repeats its recursion without re-checking).
    std::span<const RatedMove> moves(pepa::ProcessId base);
    /// Apparent rate of `action` in a base term at this point's values.
    pepa::Rate apparent(pepa::ProcessId base, pepa::ActionId action);
    /// The rebound counterpart of a base-model term.
    pepa::ProcessId term(pepa::ProcessId base);
    /// The rebound counterpart of a base-model constant (identity for
    /// constants the sweep does not affect).
    pepa::ConstantId constant(pepa::ConstantId base);
    const std::vector<double>& values() const noexcept { return values_; }
    /// True when every swept value equals the base model's: terms map to
    /// themselves.
    bool is_identity() const noexcept { return identity_; }

   private:
    friend class RateRebinder;
    Point(RateRebinder& owner, std::vector<double> values);

    static constexpr std::uint32_t kNone = 0xffffffffu;

    /// A node's moves: moves_[begin, end).
    struct Range {
      std::uint32_t begin = kNone;  ///< kNone: not computed yet
      std::uint32_t end = 0;
      std::uint32_t size() const noexcept { return end - begin; }
    };
    /// Per base node: its move range and the head of its apparent-rate list
    /// (a chain through apparent_, kNone-terminated).
    struct NodeMemo {
      Range moves;
      std::uint32_t apparent = kNone;
    };
    struct ApparentEntry {
      pepa::Rate rate;
      pepa::ActionId action;
      std::uint32_t next;
    };

    NodeMemo& memo(pepa::ProcessId base);
    Range move_range(pepa::ProcessId base);
    Range compute_moves(pepa::ProcessId base);
    pepa::Rate compute_apparent(pepa::ProcessId base, pepa::ActionId action);
    /// Makes room for `extra` more moves without a reallocation, so moves
    /// can be copied from one range of the buffer onto its end.
    void reserve_moves(std::size_t extra);
    std::uint32_t moves_end() const;
    /// The prefix's rate with this point's value substituted when swept.
    pepa::Rate prefix_rate(pepa::ProcessId id, const pepa::ProcessNode& node)
        const;

    RateRebinder& owner_;
    std::vector<double> values_;
    bool identity_;
    std::uint64_t serial_;
    std::unordered_map<pepa::ProcessId, pepa::ProcessId> terms_;
    std::unordered_map<pepa::ConstantId, pepa::ConstantId> constants_;
    std::vector<NodeMemo> nodes_;  ///< indexed by base ProcessId
    std::vector<RatedMove> moves_;
    std::vector<ApparentEntry> apparent_;
  };

  /// A remapping context for one point; `values` align with parameters()
  /// and must be positive and finite (util::ModelError otherwise).
  Point at(std::span<const double> values);

 private:
  friend class Point;

  pepa::Model& model_;
  std::vector<std::string> parameters_;
  std::vector<double> base_values_;
  std::uint64_t structure_ = 0;
  /// Tagged prefix -> (axis index, literal scale): rate = scale * value.
  std::unordered_map<pepa::ProcessId, std::pair<std::size_t, double>> swept_;
  /// Constants whose definition (transitively) contains a swept prefix.
  std::vector<char> constant_affected_;
  /// Distinguishes the fresh constants declared by successive points.
  std::atomic<std::uint64_t> next_serial_{0};
};

}  // namespace choreo::sweep
