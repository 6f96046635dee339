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
//   * A TapeRecorder is the SOS's rate algebra over a RateTape: a
//     hash-consed program over the swept axes whose nodes are literals,
//     scaled axes (scale * value), apparent-rate sums and minima, and the
//     cooperation rate law, in the order they are first computed.  Its
//     term walk (moves(), apparent()) is the syntax-directed recursion of
//     Semantics::compute_derivatives / compute_apparent with a tape node in
//     place of every rate, memoised on flat storage: every term's moves are
//     a [begin, end) range of one buffer, a constant shares its body's
//     range, and apparent rates are kept only for the (term, action) pairs
//     asked for.  Its folds (plus(), min(), cooperation()) evaluate each new
//     node at the base values, so operands that Rate::plus and Rate::min
//     would return unchanged (a zero, or a passive operand of min) fold
//     away: zero-ness and kind never depend on a positive value.  A fold
//     whose operand nodes were seen before is found by lookups in small
//     dense tables over node ids, not by hashing a node.  The sweep runner
//     (runner.cpp) records one tape per sweep: for
//     the exact backend by composing every derived state's moves over the
//     space's leaf layout (pepa/leaf_moves.hpp) with the recorder's folds,
//     its walk run over the leaves' local terms only, so each transition
//     gets the node of its rate; for the fluid backend by walking the
//     vector form's local states.  Neither renders a state term or writes
//     into the model's arena.  A sweep point is then RateTape::evaluate():
//     tens of nodes of arithmetic, no term walk.  Evaluating in node order
//     raises the first error the recording walk would.
//
// The module also content-addresses models: structure_fingerprint() hashes
// the rate-stripped model (the identity shared by every point of a sweep)
// and RateRebinder::rate_fingerprint() hashes the full rate payload at one
// point — together they key per-point service cache entries.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pepa/model.hpp"

namespace choreo::sweep {

/// FNV-1a hash of the rate-stripped model: operators, action and constant
/// names, cooperation/hiding sets and each rate's active/passive kind, but
/// no rate values.  Every point of a sweep shares this fingerprint; models
/// differing only in rate values collide on purpose.
std::uint64_t structure_fingerprint(pepa::Model& model);

class RateRebinder {
 public:
  /// Prepares to sweep `parameters` of `model`.  Throws util::ModelError
  /// when a name is not a parameter, is opaque (used in a compound rate
  /// expression, feeds a derived parameter, or lost its provenance to
  /// hash-consing), or never appears as a prefix rate.  The model must
  /// outlive the rebinder.
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

  /// One sweep point: values checked against the parameters, one per
  /// axis, in parameters() order.
  class Point {
   public:
    const std::vector<double>& values() const noexcept { return values_; }

   private:
    friend class RateRebinder;
    explicit Point(std::vector<double> values) : values_(std::move(values)) {}

    std::vector<double> values_;
  };

  /// The point at `values`, which align with parameters() and must be
  /// positive and finite (util::ModelError otherwise).
  Point at(std::span<const double> values) const;

 private:
  friend class TapeRecorder;

  pepa::Model& model_;
  std::vector<std::string> parameters_;
  std::vector<double> base_values_;
  std::uint64_t structure_ = 0;
  /// Tagged prefix -> (axis index, literal scale): rate = scale * value.
  std::unordered_map<pepa::ProcessId, std::pair<std::size_t, double>> swept_;
};

/// A sweep's rates compiled once: a hash-consed program over the swept axes
/// whose nodes only refer to earlier nodes.  Immutable once recorded, so
/// concurrent point evaluations share one tape.
class RateTape {
 public:
  using NodeId = std::uint32_t;

  /// Number of nodes.
  std::size_t size() const noexcept { return nodes_.size(); }

  /// Every node's rate with `values` (one per axis) substituted, evaluated
  /// in node order.  The first node whose arithmetic fails throws
  /// util::ModelError: the error the recording walk would raise first at
  /// these values.
  std::vector<pepa::Rate> evaluate(std::span<const double> values) const;

  /// The value of each of `nodes` with `values` substituted: evaluate(),
  /// gathered.
  std::vector<double> rates(std::span<const double> values,
                            std::span<const NodeId> nodes) const;

 private:
  friend class TapeRecorder;

  enum class Kind : std::uint8_t {
    kLiteral,      ///< a fixed rate: `value` and `passive`
    kAxis,         ///< `value` * values[axis], active or `passive`
    kPlus,         ///< operands 0 + 1 (Rate::plus, `action` for context)
    kMin,          ///< min(operand 0, operand 1) (Rate::min)
    kCooperation,  ///< pepa::cooperation_rate(operands 0..3), `action`
  };
  struct Node {
    Kind kind = Kind::kLiteral;
    bool passive = false;
    pepa::ActionId action = 0;
    std::uint32_t axis = 0;
    double value = 0.0;
    std::array<NodeId, 4> operands{};
  };

  /// One node's rate, given the rates of every earlier node.
  pepa::Rate apply(const Node& node, std::span<const double> values,
                   std::span<const pepa::Rate> earlier) const;

  const pepa::ProcessArena* arena_ = nullptr;  ///< action names for errors
  std::vector<Node> nodes_;
};

/// One enabled activity of a base term: its action and its rate's tape node.
struct TapeMove {
  pepa::ActionId action;
  RateTape::NodeId rate;
};

/// Records a RateTape: the rate algebra of the SOS over tape nodes (see the
/// header comment).  moves() and apparent() walk base terms; plus(), min()
/// and cooperation() are the folds a composition over them makes, which
/// SharedStructure's recording over the leaf layout calls too.
/// Single-threaded; drop it once recording is done, which frees its memo.
class TapeRecorder {
 public:
  using NodeId = RateTape::NodeId;
  /// The zero rate ("no capacity"), which never becomes a node.
  static constexpr NodeId kZero = 0xffffffffu;

  /// Records into `tape`, which must be empty; `rebinder` and `tape` must
  /// outlive the recorder.
  TapeRecorder(const RateRebinder& rebinder, RateTape& tape);

  /// The moves of a base term in the emission order of
  /// Semantics::derivatives, each rate a tape node (never zero).  The span
  /// stays valid until the next moves() call.  Only call after the base
  /// model has been derived (derivation validates guardedness; this walk
  /// repeats its recursion without re-checking).
  std::span<const TapeMove> moves(pepa::ProcessId base);

  /// The apparent rate of `action` in a base term, the node of
  /// Semantics::apparent_rate (kZero for none).  The same precondition as
  /// moves().
  NodeId apparent(pepa::ProcessId base, pepa::ActionId action);

  /// Rate::plus (`context` names the action), Rate::min and
  /// pepa::cooperation_rate over nodes.  Rate::plus and Rate::min return an
  /// operand unchanged when the other is zero, and min returns its active
  /// operand against a passive one; those cases depend only on zero-ness
  /// and kind, which every point shares with the base values, so they fold
  /// instead of becoming nodes.  A fold whose operands were seen before is
  /// found in the folds' dense tables (see PairMemo).
  NodeId plus(NodeId a, NodeId b, pepa::ActionId context);
  NodeId min(NodeId a, NodeId b);
  NodeId cooperation(NodeId r1, NodeId apparent1, NodeId r2,
                     NodeId apparent2, pepa::ActionId action);

  /// A recorded node's rate at the base values.
  const pepa::Rate& base_rate(NodeId node) const { return base_[node]; }

 private:
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
    NodeId rate;
    pepa::ActionId action;
    std::uint32_t next;
  };
  struct NodeHash {
    std::size_t operator()(const RateTape::Node& node) const noexcept;
  };
  struct NodeEq {
    bool operator()(const RateTape::Node& a,
                    const RateTape::Node& b) const noexcept;
  };
  /// What one fold made of each pair of operands (kNone: not seen yet).
  /// Tapes are small, so operand ids below kDense index a dense table; a
  /// pair beyond it is kept in a hash map on the two ids.
  class PairMemo {
   public:
    std::uint32_t& at(std::uint32_t a, std::uint32_t b);

   private:
    static constexpr std::uint32_t kDense = 128;
    std::vector<std::uint32_t> dense_;
    std::unordered_map<std::uint64_t, std::uint32_t> spill_;
  };

  NodeMemo& memo(pepa::ProcessId base);
  Range move_range(pepa::ProcessId base);
  Range compute_moves(pepa::ProcessId base);
  NodeId compute_apparent(pepa::ProcessId base, pepa::ActionId action);
  /// Makes room for `extra` more moves without a reallocation, so moves
  /// can be copied from one range of the buffer onto its end.
  void reserve_moves(std::size_t extra);
  std::uint32_t moves_end() const;

  /// The node of `node`, recording (and evaluating) it when new.
  NodeId intern(const RateTape::Node& node);
  /// A node's base rate; the zero rate for kZero.
  pepa::Rate rate(NodeId id) const;
  NodeId prefix_rate(pepa::ProcessId id, const pepa::ProcessNode& node);

  const RateRebinder& rebinder_;
  RateTape& tape_;
  std::vector<pepa::Rate> base_;  ///< per tape node
  std::unordered_map<RateTape::Node, NodeId, NodeHash, NodeEq> ids_;
  std::vector<NodeMemo> nodes_;  ///< indexed by base ProcessId
  std::vector<TapeMove> moves_;
  std::vector<ApparentEntry> apparent_;
  /// The folds' memos.  A cooperation law is memoised on its two (rate,
  /// apparent rate) operand pairs, each numbered by pairs_.
  PairMemo sums_;
  PairMemo minima_;
  PairMemo pairs_;
  PairMemo laws_;
  std::uint32_t pair_count_ = 0;
};

}  // namespace choreo::sweep
