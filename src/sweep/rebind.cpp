#include "sweep/rebind.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "pepa/rate.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::sweep {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Canonical FNV-1a walk over a model's term DAG.  Shared subterms hash as
/// back-references so the walk is linear in the DAG size; rate values are
/// included only when `include_rates` (with swept substitutions applied),
/// which is the whole difference between the structure and rate
/// fingerprints.
class Fingerprinter {
 public:
  Fingerprinter(
      const pepa::ProcessArena& arena, bool include_rates,
      const std::unordered_map<pepa::ProcessId,
                               std::pair<std::size_t, double>>* swept,
      std::span<const double> values)
      : arena_(arena),
        include_rates_(include_rates),
        swept_(swept),
        values_(values) {}

  std::uint64_t run(pepa::Model& model) {
    for (pepa::ConstantId id = 0; id < arena_.constant_count(); ++id) {
      if (!arena_.is_defined(id)) continue;
      byte('D');
      str(arena_.constant_name(id));
      term(arena_.body(id));
    }
    byte('S');
    term(model.system());
    return hash_;
  }

 private:
  void term(pepa::ProcessId id) {
    auto [it, inserted] = seen_.emplace(id, seen_.size());
    if (!inserted) {
      byte('#');
      u64(it->second);
      return;
    }
    const pepa::ProcessNode& node = arena_.node(id);
    switch (node.op) {
      case pepa::Op::kStop:
        byte('0');
        break;
      case pepa::Op::kPrefix: {
        byte('.');
        str(arena_.action_name(node.action));
        byte(node.rate.is_passive() ? 'p' : 'a');
        if (include_rates_) {
          double value = node.rate.value();
          if (swept_ != nullptr) {
            if (const auto swept = swept_->find(id); swept != swept_->end()) {
              value = swept->second.second * values_[swept->second.first];
            }
          }
          real(value);
        }
        term(node.left);
        break;
      }
      case pepa::Op::kChoice:
        byte('+');
        term(node.left);
        term(node.right);
        break;
      case pepa::Op::kCooperation:
        byte('<');
        for (const pepa::ActionId action : node.action_set) {
          str(arena_.action_name(action));
        }
        byte('>');
        term(node.left);
        term(node.right);
        break;
      case pepa::Op::kHiding:
        byte('/');
        for (const pepa::ActionId action : node.action_set) {
          str(arena_.action_name(action));
        }
        byte('}');
        term(node.left);
        break;
      case pepa::Op::kConstant:
        byte('C');
        str(arena_.constant_name(node.constant));
        break;
    }
  }

  void byte(unsigned char value) { hash_ = (hash_ ^ value) * kFnvPrime; }
  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<unsigned char>(value >> shift));
    }
  }
  void real(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(const std::string& text) {
    for (const char c : text) byte(static_cast<unsigned char>(c));
    byte(0);
  }

  const pepa::ProcessArena& arena_;
  bool include_rates_;
  const std::unordered_map<pepa::ProcessId, std::pair<std::size_t, double>>*
      swept_;
  std::span<const double> values_;
  std::unordered_map<pepa::ProcessId, std::uint64_t> seen_;
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t structure_fingerprint(pepa::Model& model) {
  return Fingerprinter(model.arena(), /*include_rates=*/false, nullptr, {})
      .run(model);
}

RateRebinder::RateRebinder(pepa::Model& model,
                           std::vector<std::string> parameters)
    : model_(model), parameters_(std::move(parameters)) {
  if (parameters_.empty()) {
    throw util::ModelError("a sweep needs at least one parameter");
  }
  base_values_.reserve(parameters_.size());
  for (const std::string& name : parameters_) {
    base_values_.push_back(model_.parameter(name));  // throws when unknown
    if (model_.parameter_is_opaque(name)) {
      throw util::ModelError(util::msg(
          "rate parameter '", name,
          "' cannot be swept: it is used in a compound rate expression, "
          "feeds a derived parameter, or shares a prefix with a literal "
          "rate"));
    }
  }
  std::vector<std::size_t> tagged(parameters_.size(), 0);
  for (const auto& [prefix, tag] : model_.prefix_rate_tags()) {
    for (std::size_t axis = 0; axis < parameters_.size(); ++axis) {
      if (tag.parameter == parameters_[axis]) {
        swept_.emplace(prefix, std::make_pair(axis, tag.scale));
        ++tagged[axis];
        break;
      }
    }
  }
  for (std::size_t axis = 0; axis < parameters_.size(); ++axis) {
    if (tagged[axis] == 0) {
      throw util::ModelError(util::msg("rate parameter '", parameters_[axis],
                                       "' is never used as an activity "
                                       "rate; sweeping it has no effect"));
    }
  }
  structure_ = structure_fingerprint(model_);
}

std::uint64_t RateRebinder::rate_fingerprint(
    std::span<const double> values) const {
  if (values.size() != parameters_.size()) {
    throw util::ModelError(util::msg("sweep point has ", values.size(),
                                     " values for ", parameters_.size(),
                                     " parameters"));
  }
  return Fingerprinter(model_.arena(), /*include_rates=*/true, &swept_, values)
      .run(model_);
}

RateRebinder::Point RateRebinder::at(std::span<const double> values) const {
  if (values.size() != parameters_.size()) {
    throw util::ModelError(util::msg("sweep point has ", values.size(),
                                     " values for ", parameters_.size(),
                                     " parameters"));
  }
  for (std::size_t axis = 0; axis < values.size(); ++axis) {
    if (!(values[axis] > 0.0) || !std::isfinite(values[axis])) {
      throw util::ModelError(util::msg(
          "sweep value ", util::format_double(values[axis]), " for '",
          parameters_[axis], "' is not a valid rate"));
    }
  }
  return Point(std::vector<double>(values.begin(), values.end()));
}

std::vector<pepa::Rate> RateTape::evaluate(
    std::span<const double> values) const {
  std::vector<pepa::Rate> rates;
  rates.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    const pepa::Rate rate = apply(node, values, rates);
    rates.push_back(rate);
  }
  return rates;
}

std::vector<double> RateTape::rates(std::span<const double> values,
                                    std::span<const NodeId> nodes) const {
  const std::vector<pepa::Rate> evaluated = evaluate(values);
  std::vector<double> out(nodes.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = evaluated[nodes[i]].value();
  }
  return out;
}

pepa::Rate RateTape::apply(const Node& node, std::span<const double> values,
                           std::span<const pepa::Rate> earlier) const {
  const auto& [a, b, c, d] = node.operands;
  switch (node.kind) {
    case Kind::kLiteral:
      return node.passive ? pepa::Rate::passive(node.value)
                          : pepa::Rate::active(node.value);
    case Kind::kAxis: {
      const double value = node.value * values[node.axis];
      return node.passive ? pepa::Rate::passive(value)
                          : pepa::Rate::active(value);
    }
    case Kind::kPlus:
      return earlier[a].plus(earlier[b], arena_->action_name(node.action));
    case Kind::kMin:
      return pepa::Rate::min(earlier[a], earlier[b]);
    case Kind::kCooperation:
      return pepa::cooperation_rate(earlier[a], earlier[b], earlier[c],
                                    earlier[d],
                                    arena_->action_name(node.action));
  }
  return pepa::Rate();
}

std::size_t TapeRecorder::NodeHash::operator()(
    const RateTape::Node& node) const noexcept {
  std::uint64_t hash = kFnvOffset;
  auto mix = [&](std::uint64_t value) { hash = (hash ^ value) * kFnvPrime; };
  mix(static_cast<std::uint64_t>(node.kind));
  mix(node.passive ? 1 : 0);
  mix(node.action);
  mix(node.axis);
  mix(std::bit_cast<std::uint64_t>(node.value));
  for (const RateTape::NodeId operand : node.operands) mix(operand);
  return static_cast<std::size_t>(hash);
}

bool TapeRecorder::NodeEq::operator()(
    const RateTape::Node& a, const RateTape::Node& b) const noexcept {
  return a.kind == b.kind && a.passive == b.passive && a.action == b.action &&
         a.axis == b.axis &&
         std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value) &&
         a.operands == b.operands;
}

TapeRecorder::TapeRecorder(const RateRebinder& rebinder, RateTape& tape)
    : rebinder_(rebinder), tape_(tape) {
  CHOREO_ASSERT(tape_.nodes_.empty());
  tape_.arena_ = &rebinder_.model_.arena();
}

TapeRecorder::NodeId TapeRecorder::intern(const RateTape::Node& node) {
  if (const auto hit = ids_.find(node); hit != ids_.end()) return hit->second;
  // Evaluated before it is appended: a node that fails at the base values
  // would have failed the base derivation too, and leaves no trace here.
  const pepa::Rate value =
      tape_.apply(node, rebinder_.base_values(), base_);
  CHOREO_ASSERT(tape_.nodes_.size() < kZero);
  const auto id = static_cast<NodeId>(tape_.nodes_.size());
  tape_.nodes_.push_back(node);
  base_.push_back(value);
  ids_.emplace(node, id);
  return id;
}

TapeRecorder::NodeId TapeRecorder::prefix(pepa::ProcessId id,
                                          const pepa::ProcessNode& node) {
  RateTape::Node out;
  out.passive = node.rate.is_passive();
  if (const auto swept = rebinder_.swept_.find(id);
      swept != rebinder_.swept_.end()) {
    out.kind = RateTape::Kind::kAxis;
    out.axis = static_cast<std::uint32_t>(swept->second.first);
    out.value = swept->second.second;
  } else {
    out.kind = RateTape::Kind::kLiteral;
    out.value = node.rate.value();
  }
  return intern(out);
}

std::uint32_t& TapeRecorder::PairMemo::at(std::uint32_t a, std::uint32_t b) {
  if (a < kDense && b < kDense) {
    if (dense_.empty()) dense_.assign(std::size_t{kDense} * kDense, kNone);
    return dense_[std::size_t{a} * kDense + b];
  }
  return spill_.try_emplace((std::uint64_t{a} << 32) | b, kNone).first->second;
}

// A memo hit of plus() or cooperation() is the node only when its action is
// the one asked: equal operands under another action are another node, which
// the hash-consing finds (and the memo keeps the first).
TapeRecorder::NodeId TapeRecorder::plus(NodeId a, NodeId b,
                                        pepa::ActionId context) {
  if (base_rate(a).is_zero()) return b;
  if (base_rate(b).is_zero()) return a;
  std::uint32_t& seen = sums_.at(a, b);
  if (seen != kNone && tape_.nodes_[seen].action == context) return seen;
  RateTape::Node out;
  out.kind = RateTape::Kind::kPlus;
  out.action = context;
  out.operands = {a, b, 0, 0};
  const NodeId id = intern(out);
  if (seen == kNone) seen = id;
  return id;
}

TapeRecorder::NodeId TapeRecorder::min(NodeId a, NodeId b) {
  const pepa::Rate left = base_rate(a);
  const pepa::Rate right = base_rate(b);
  if (left.is_zero() || right.is_zero()) return kZero;
  if (left.is_passive() != right.is_passive()) {
    return left.is_passive() ? b : a;
  }
  std::uint32_t& seen = minima_.at(a, b);
  if (seen == kNone) {
    RateTape::Node out;
    out.kind = RateTape::Kind::kMin;
    out.operands = {a, b, 0, 0};
    seen = intern(out);
  }
  return seen;
}

TapeRecorder::NodeId TapeRecorder::cooperation(NodeId r1, NodeId apparent1,
                                               NodeId r2, NodeId apparent2,
                                               pepa::ActionId action) {
  auto pair = [this](NodeId rate, NodeId apparent) {
    std::uint32_t& seen = pairs_.at(rate, apparent);
    if (seen == kNone) seen = pair_count_++;
    return seen;
  };
  const std::uint32_t left = pair(r1, apparent1);
  const std::uint32_t right = pair(r2, apparent2);
  std::uint32_t& seen = laws_.at(left, right);
  if (seen != kNone && tape_.nodes_[seen].action == action) return seen;
  RateTape::Node law;
  law.kind = RateTape::Kind::kCooperation;
  law.action = action;
  law.operands = {r1, apparent1, r2, apparent2};
  const NodeId id = intern(law);
  if (seen == kNone) seen = id;
  return id;
}

}  // namespace choreo::sweep
