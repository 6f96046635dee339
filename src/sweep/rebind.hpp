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
//     cooperation rate law, in the order they are first computed.  It has
//     no walk of its own: pepa's one SOS walk (pepa/semantics.hpp) runs in
//     it as a TapeWalk, with a tape node in place of every rate.  Its folds
//     (plus(), min(), cooperation()) evaluate each new node at the base
//     values, so operands that Rate::plus and Rate::min would return
//     unchanged (a zero, or a passive operand of min) fold away: zero-ness
//     and kind never depend on a positive value.  A fold whose operand
//     nodes were seen before is found by lookups in small dense tables over
//     node ids, not by hashing a node.  The sweep runner (runner.cpp)
//     records one tape per sweep: for the exact backend by composing every
//     derived state's moves over the space's leaf layout
//     (pepa/leaf_moves.hpp) with the recorder's folds, the leaves' local
//     terms walked by a TapeWalk, so each transition gets the node of its
//     rate; for the fluid backend by walking the vector form's local states.
//     Neither renders a state term or writes into the model's arena: every
//     target a TapeWalk reaches was interned when the base model was
//     derived (or its vector form built), so the walk only finds it.  A
//     sweep point is then RateTape::evaluate(): tens of nodes of
//     arithmetic, no term walk.  Evaluating in node order raises the first
//     error the recording walk would.
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
#include "pepa/semantics.hpp"

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

/// Records a RateTape: the SOS's rate algebra over tape nodes (see the
/// header comment), for pepa's walk over base terms (TapeWalk) and for
/// SharedStructure's composition over the leaf layout.  Single-threaded;
/// drop it once recording is done, which frees its memos.
class TapeRecorder {
 public:
  using NodeId = RateTape::NodeId;
  using Value = NodeId;
  using Context = pepa::ActionId;
  /// The zero rate ("no capacity"), which never becomes a node.
  static constexpr NodeId kZero = 0xffffffffu;

  /// Records into `tape`, which must be empty; `rebinder` and `tape` must
  /// outlive the recorder.
  TapeRecorder(const RateRebinder& rebinder, RateTape& tape);

  static Context context(pepa::ActionId action) { return action; }
  static NodeId zero() { return kZero; }
  static bool is_zero(NodeId node) { return node == kZero; }

  /// The node of prefix `id`'s rate: its scaled axis when the prefix is
  /// swept, else its literal rate.
  NodeId prefix(pepa::ProcessId id, const pepa::ProcessNode& node);

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

  /// A recorded node's rate at the base values; the zero rate for kZero.
  pepa::Rate base_rate(NodeId node) const {
    return node == kZero ? pepa::Rate() : base_[node];
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

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

  /// The node of `node`, recording (and evaluating) it when new.
  NodeId intern(const RateTape::Node& node);

  const RateRebinder& rebinder_;
  RateTape& tape_;
  std::vector<pepa::Rate> base_;  ///< per tape node
  std::unordered_map<RateTape::Node, NodeId, NodeHash, NodeEq> ids_;
  /// The folds' memos.  A cooperation law is memoised on its two (rate,
  /// apparent rate) operand pairs, each numbered by pairs_.
  PairMemo sums_;
  PairMemo minima_;
  PairMemo pairs_;
  PairMemo laws_;
  std::uint32_t pair_count_ = 0;
};

/// pepa's SOS walk over a base model's terms in a TapeRecorder: derivatives
/// and apparent rates whose rates are tape nodes.
using TapeWalk = pepa::BasicSemantics<TapeRecorder>;

}  // namespace choreo::sweep
