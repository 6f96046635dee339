#include "sweep/runner.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <exception>
#include <functional>
#include <iomanip>
#include <memory>
#include <span>
#include <sstream>

#include "pepa/leaf_moves.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace choreo::sweep {

namespace {

/// CSV field quoting (RFC 4180 style) for the error column.
std::string csv_field(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void json_string(std::ostringstream& out, const std::string& text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      case '\r':
        out << "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
              << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

std::string hex_fingerprint(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

// The set-up refusals of both backends: a recorded move that does not align
// with what the base model derived (`where`), or a tape node that does not
// reproduce its derived rate bit for bit at the base values (`what`).
// `reused` names the structure a sweep would otherwise share.

util::ModelError misaligned(const std::string& where, const char* reused) {
  return util::ModelError(util::msg(
      "sweep point does not preserve the model structure at ", where,
      "; the ", reused, " cannot be reused"));
}

util::ModelError unreproduced(const std::string& what, double rebound,
                              double derived, const char* reused) {
  return util::ModelError(util::msg(
      "sweep rates do not reproduce the derived rate of ", what, " (",
      util::format_double(rebound), " rebound, ",
      util::format_double(derived), " derived); the ", reused,
      " cannot be reused"));
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The fluid backend's once-per-sweep artefacts: the vector form of the
/// base model, built once, and one rate-tape node per local derivative it
/// was built from.  A point evaluates the tape and refills the form's local
/// rates; nothing is built or interned per point, so point lanes share
/// this object read-only.
class FluidStructure {
 public:
  FluidStructure(pepa::Model& model, std::vector<std::string> parameters,
                 const fluid::BuildOptions& options)
      : rebinder_(model, std::move(parameters)), semantics_(model.arena()) {
    // A model the vector form cannot represent fails every point with the
    // build's error; only the bound on a local derivative set aborts.
    try {
      form_ = fluid::VectorForm::build(semantics_, model.system(), options);
    } catch (const util::BudgetError&) {
      throw;
    } catch (const util::Error& error) {
      rejected_ = error.what();
      return;
    }
    // The exact backend's set-up checks, local state by local state: the
    // tape walk's moves of a local state are its derivatives, in order, and
    // reproduce their rates bit for bit at the base values.
    TapeWalk walk(model.arena(), TapeRecorder(rebinder_, tape_));
    rate_nodes_.reserve(form_.derivative_count());
    for (const fluid::Group& group : form_.groups()) {
      for (std::size_t s = 0; s < group.states.size(); ++s) {
        const std::string where = util::msg("local state ", group.first + s);
        const std::span<const TapeWalk::Move> moves =
            walk.derivatives(group.states[s]);
        const std::span<const pepa::Derivative> derivatives =
            semantics_.derivatives(group.states[s]);
        if (moves.size() != derivatives.size()) {
          throw misaligned(where, "vector form");
        }
        for (std::size_t j = 0; j < moves.size(); ++j) {
          if (moves[j].action != derivatives[j].action) {
            throw misaligned(where, "vector form");
          }
          const double rebound =
              walk.algebra().base_rate(moves[j].rate).value();
          const double derived = derivatives[j].rate.value();
          if (!same_bits(rebound, derived)) {
            throw unreproduced("a local transition from " + where, rebound,
                               derived, "vector form");
          }
          rate_nodes_.push_back(moves[j].rate);
        }
      }
    }
  }

  const RateRebinder& rebinder() const noexcept { return rebinder_; }
  /// The error of a rejected vector form (every point reports it), or
  /// empty.
  const std::string& rejected() const noexcept { return rejected_; }

  /// The vector form at one point's rates.
  fluid::VectorForm form(const RateRebinder::Point& point) const {
    return form_.with_rates(tape_.rates(point.values(), rate_nodes_));
  }

 private:
  RateRebinder rebinder_;
  pepa::Semantics semantics_;
  fluid::VectorForm form_;
  std::string rejected_;
  RateTape tape_;
  std::vector<RateTape::NodeId> rate_nodes_;  ///< per local derivative
};

/// SharedStructure's rate algebra for pepa::LeafMoves: every rate a tape
/// node.  A leaf's local moves and apparent rates get theirs from the tape
/// walk over that local term, when the composition first reaches it; the
/// folds are the walk's recorder's.  So the tape's nodes come in the order
/// the composition first uses them, and no state term is rendered.
class LeafTape {
 public:
  using Value = RateTape::NodeId;
  using Context = pepa::ActionId;

  LeafTape(const pepa::LeafLayout& layout, TapeWalk& walk)
      : layout_(layout), walk_(walk), tables_(layout.table_count()) {
    for (std::uint32_t t = 0; t < tables_.size(); ++t) {
      const pepa::LeafLayout::Table& table = layout_.table(t);
      tables_[t].moves.resize(table.moves.size());
      tables_[t].recorded.assign(table.terms.size(), false);
      tables_[t].apparent.assign(table.apparent.size(), kUnset);
    }
  }

  static Context context(pepa::ActionId action) { return action; }
  static Value zero() { return TapeRecorder::kZero; }
  static bool is_zero(Value node) { return node == TapeRecorder::kZero; }

  /// The nodes of local term `local`'s moves, recorded on first use and
  /// checked against the table's moves.
  const Value* leaf_rates(std::uint32_t t, std::uint32_t local) {
    const pepa::LeafLayout::Table& table = layout_.table(t);
    Nodes& nodes = tables_[t];
    Value* rates = nodes.moves.data() + table.move_begin[local];
    if (nodes.recorded[local]) return rates;
    const std::span<const TapeWalk::Move> moves =
        walk_.derivatives(table.terms[local]);
    const std::span<const pepa::LeafLayout::LocalMove> derived =
        table.moves_of(local);
    const std::string where =
        util::msg("local state ", local, " of leaf table ", t);
    if (moves.size() != derived.size()) {
      throw misaligned(where, "derived state space");
    }
    for (std::size_t m = 0; m < moves.size(); ++m) {
      if (moves[m].action != derived[m].action) {
        throw misaligned(where, "derived state space");
      }
      rates[m] = moves[m].rate;
    }
    nodes.recorded[local] = true;
    return rates;
  }

  Value leaf_apparent(std::uint32_t t, std::uint32_t local,
                      pepa::ActionId action) {
    const pepa::LeafLayout::Table& table = layout_.table(t);
    for (std::uint32_t a = table.apparent_begin[local];
         a < table.apparent_begin[local + 1]; ++a) {
      if (table.apparent[a].action != action) continue;
      if (table.apparent[a].error) {
        std::rethrow_exception(table.apparent[a].error);
      }
      Value& node = tables_[t].apparent[a];
      if (node == kUnset) {
        node = walk_.apparent_rate(table.terms[local], action);
      }
      return node;
    }
    return zero();
  }

  Value plus(Value a, Value b, Context action) {
    return walk_.algebra().plus(a, b, action);
  }
  Value min(Value a, Value b) { return walk_.algebra().min(a, b); }
  Value cooperation(Value r1, Value apparent1, Value r2, Value apparent2,
                    Context action) {
    return walk_.algebra().cooperation(r1, apparent1, r2, apparent2, action);
  }

 private:
  /// Not recorded yet; kZero is a recorded apparent rate of zero.
  static constexpr Value kUnset = TapeRecorder::kZero - 1;

  /// One table's nodes, aligned with its moves and apparent entries.
  struct Nodes {
    std::vector<Value> moves;
    std::vector<bool> recorded;  ///< per local term: its moves' nodes set
    std::vector<Value> apparent;
  };

  const pepa::LeafLayout& layout_;
  TapeWalk& walk_;
  std::vector<Nodes> tables_;
};

/// Every transition's tape node: each state's moves composed over the
/// space's leaf layout in `algebra`, checked against the state's derived
/// row.  The derivation commits the moves in composition order and refuses
/// top-level passive moves, so a row holds every composed move.
template <typename Key>
std::vector<RateTape::NodeId> record_rates(const pepa::StateSpace& space,
                                           LeafTape& algebra) {
  const pepa::LeafMoves<Key, LeafTape> compose(space.layout(), algebra);
  const std::span<const pepa::StateTransition> transitions =
      space.transitions();
  std::vector<RateTape::NodeId> nodes(transitions.size());
  Key key(space.key_words());
  for (std::size_t state = 0; state < space.state_count(); ++state) {
    const std::span<const std::uint64_t> words = space.key(state);
    std::copy(words.begin(), words.end(), key.data());
    const auto moves = compose(key);
    const std::span<const pepa::StateTransition> row = space.lts().from(state);
    const auto offset = static_cast<std::size_t>(row.data() - transitions.data());
    if (moves.size() != row.size()) {
      throw misaligned(util::msg("state ", state), "derived state space");
    }
    for (std::size_t j = 0; j < moves.size(); ++j) {
      if (row[j].action != moves[j].action) {
        throw misaligned(util::msg("state ", state), "derived state space");
      }
      nodes[offset + j] = moves[j].rate;
    }
  }
  return nodes;
}

}  // namespace

const char* to_string(Backend backend) {
  switch (backend) {
    case Backend::kExact:
      return "exact";
    case Backend::kFluid:
      return "fluid";
  }
  return "?";
}

SharedStructure::SharedStructure(pepa::Model& model,
                                 std::vector<std::string> parameters,
                                 const pepa::DeriveOptions& options)
    : rebinder_(model, std::move(parameters)),
      semantics_(model.arena()),
      space_(pepa::StateSpace::derive(semantics_, model.system(), options)) {
  setup_.derive = space_.stats().seconds;
  util::Stopwatch timer;
  const std::span<const pepa::StateTransition> transitions =
      space_.transitions();
  {
    // Scoped: the tape walk's memos are freed before the throughput
    // streams and the pattern are built.
    TapeWalk walk(semantics_.arena(), TapeRecorder(rebinder_, tape_));
    LeafTape algebra(space_.layout(), walk);
    rate_nodes_ = space_.key_words() == 1
                      ? record_rates<pepa::WordKey>(space_, algebra)
                      : record_rates<pepa::HeapKey>(space_, algebra);
  }
  // The tape must reproduce every derived rate bit for bit at the base
  // values.  Besides a recording fault, this catches a swept rate whose
  // literal scale does not reproduce what was written (r/3 is parsed as
  // r/3, swept as (1/3)*r), which would make the base point disagree with
  // a plain analysis of the same model.
  const std::vector<pepa::Rate> at_base =
      tape_.evaluate(rebinder_.base_values());
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const double rebound = at_base[rate_nodes_[i]].value();
    if (!same_bits(rebound, transitions[i].rate)) {
      throw unreproduced(
          util::msg("a transition from state ", transitions[i].source),
          rebound, transitions[i].rate, "derived state space");
    }
  }
  setup_.tape = timer.seconds();
  timer.restart();

  // The throughput streams: a counting sort of the non-tau transitions by
  // action, ascending within each action.  They are built before the
  // pattern, whose per-transition slots are freed at its end: a point's
  // generator values, of the same size, then reuse that block.  With the
  // streams in it instead, traced sweep_grid solves ran 10-20% slower on
  // identical generators (a heap-placement effect on the solver's arrays).
  const std::size_t actions = semantics_.arena().action_count();
  flow_begin_.assign(actions + 1, 0);
  for (const pepa::StateTransition& t : transitions) {
    if (t.action != pepa::kTau) ++flow_begin_[t.action + 1];
  }
  for (std::size_t a = 0; a < actions; ++a) flow_begin_[a + 1] += flow_begin_[a];
  flows_.resize(flow_begin_[actions]);
  std::vector<std::size_t> cursor(flow_begin_.begin(), flow_begin_.end() - 1);
  for (std::size_t i = 0; i < transitions.size(); ++i) {
    const pepa::StateTransition& t = transitions[i];
    if (t.action != pepa::kTau) {
      flows_[cursor[t.action]++] = {t.source, rate_nodes_[i]};
    }
  }
  pattern_ = ctmc::GeneratorPattern(space_.state_count(), transitions,
                                    std::span<const std::uint32_t>(rate_nodes_),
                                    tape_.size(), space_.lts().row_offsets(),
                                    space_.lanes());
  setup_.pattern = timer.seconds();
}

std::vector<double> SharedStructure::rebind_rates(
    const RateRebinder::Point& point) const {
  const std::vector<pepa::Rate> evaluated = tape_.evaluate(point.values());
  std::vector<double> rates(evaluated.size());
  for (std::size_t k = 0; k < rates.size(); ++k) {
    rates[k] = evaluated[k].value();
  }
  return rates;
}

std::vector<double> SharedStructure::transition_rates(
    std::span<const double> rates) const {
  std::vector<double> out(rate_nodes_.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = rates[rate_nodes_[i]];
  return out;
}

ctmc::Generator SharedStructure::generator(
    std::span<const double> rates) const {
  return pattern_.fill(rates);
}

std::vector<double> SharedStructure::throughputs(
    std::span<const double> distribution, std::span<const double> rates) const {
  // Each action's sum takes the products TransitionSystem::action_throughput's
  // slice would, in the same order — bit-identical to the base-space measure
  // at the base point.
  std::vector<double> out(semantics_.arena().action_count() - 1, 0.0);
  for (std::size_t action = 1; action + 1 < flow_begin_.size(); ++action) {
    double sum = 0.0;
    for (std::size_t k = flow_begin_[action]; k < flow_begin_[action + 1];
         ++k) {
      sum += distribution[flows_[k].source] * rates[flows_[k].rate];
    }
    out[action - 1] = sum;
  }
  return out;
}

std::vector<std::string> SharedStructure::measure_names() const {
  const pepa::ProcessArena& arena = semantics_.arena();
  std::vector<std::string> names;
  names.reserve(arena.action_count() - 1);
  for (pepa::ActionId action = 1; action < arena.action_count(); ++action) {
    names.push_back("throughput:" + arena.action_name(action));
  }
  return names;
}

SweepTable sweep(pepa::Model& model, const SweepSpec& spec,
                 const SweepOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  spec.validate();

  SweepTable table;
  table.axes = spec.parameter_names();
  const std::size_t points = spec.point_count();
  table.rows.resize(points);
  for (std::size_t p = 0; p < points; ++p) {
    table.rows[p].values = spec.point(p);
  }

  // Everything below is shared, read-only state for the point evaluators.
  std::unique_ptr<SharedStructure> shared;
  std::unique_ptr<FluidStructure> fluid_shared;
  std::function<void(std::size_t)> evaluate;

  if (options.backend == Backend::kExact) {
    pepa::DeriveOptions derive = options.derive;
    if (derive.budget == nullptr) derive.budget = options.budget;
    shared = std::make_unique<SharedStructure>(model, table.axes, derive);
    table.structure = shared->structure();
    table.derivations = 1;
    table.derive_stats = shared->space().stats();
    table.state_count = shared->space().state_count();
    table.transition_count = shared->space().transitions().size();
    table.measures = shared->measure_names();

    ctmc::SolveOptions solver = options.solver;
    solver.budget = options.budget;
    evaluate = [&table, structure = shared.get(), solver,
                budget = options.budget](std::size_t p) {
      SweepRow& row = table.rows[p];
      try {
        if (budget != nullptr) budget->check("sweep");
        const std::vector<double> rates =
            structure->rebind_rates(structure->rebinder().at(row.values));
        const ctmc::Generator generator = structure->generator(rates);
        const ctmc::SolveResult solved = ctmc::steady_state(generator, solver);
        row.measures = structure->throughputs(solved.distribution, rates);
        row.iterations = solved.iterations;
        row.residual = solved.residual;
      } catch (const util::InterruptedError&) {
        throw;  // aborts the sweep: the budget governs the whole run
      } catch (const util::BudgetError&) {
        throw;
      } catch (const util::Error& error) {
        row.error = error.what();
      }
    };
  } else {
    fluid::FluidOptions fluid = options.fluid;
    fluid.ode.budget = options.budget;
    fluid_shared =
        std::make_unique<FluidStructure>(model, table.axes, fluid.build);
    table.structure = fluid_shared->rebinder().structure();
    table.derivations = 0;  // the fluid backend never derives a state space
    const pepa::ProcessArena& arena = model.arena();
    table.measures.reserve(arena.action_count() - 1);
    for (pepa::ActionId action = 1; action < arena.action_count(); ++action) {
      table.measures.push_back("throughput:" + arena.action_name(action));
    }

    const std::size_t columns = arena.action_count() - 1;
    evaluate = [&table, structure = fluid_shared.get(), fluid, columns,
                budget = options.budget](std::size_t p) {
      SweepRow& row = table.rows[p];
      try {
        if (budget != nullptr) budget->check("sweep");
        const RateRebinder::Point point = structure->rebinder().at(row.values);
        if (!structure->rejected().empty()) {
          row.error = structure->rejected();
          return;
        }
        const fluid::FluidResult result =
            fluid::solve_steady(structure->form(point), fluid);
        row.measures.assign(columns, 0.0);
        for (const auto& [action, value] : result.throughputs) {
          if (action != pepa::kTau) row.measures[action - 1] = value;
        }
      } catch (const util::InterruptedError&) {
        throw;
      } catch (const util::BudgetError&) {
        throw;
      } catch (const util::Error& error) {
        row.error = error.what();
      }
    };
  }

  // One point per chunk on the pool's drain-safe join: a waiting lane runs
  // queued work, so points that nest pool loops of their own cannot starve
  // the points queued behind them.  Every point runs; the lowest-index
  // failure is the one rethrown, whatever the interleaving.
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::shared();
  std::vector<std::exception_ptr> failures(points);
  pool.parallel_for_dynamic(
      points, 1, options.threads, [&](std::size_t begin, std::size_t end) {
        for (std::size_t p = begin; p < end; ++p) {
          try {
            evaluate(p);
          } catch (...) {
            failures[p] = std::current_exception();
          }
        }
      });
  for (const std::exception_ptr& failure : failures) {
    if (failure) std::rethrow_exception(failure);
  }

  table.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return table;
}

std::string SweepTable::to_csv() const {
  std::ostringstream out;
  out << "# structure=" << hex_fingerprint(structure)
      << " derivations=" << derivations << " states=" << state_count
      << " transitions=" << transition_count
      << " points_from_cache=" << points_from_cache << '\n';
  std::vector<std::string> header;
  header.insert(header.end(), axes.begin(), axes.end());
  header.insert(header.end(), measures.begin(), measures.end());
  header.push_back("error");
  out << util::join(header, ",") << '\n';
  for (const SweepRow& row : rows) {
    std::vector<std::string> fields;
    fields.reserve(row.values.size() + measures.size() + 1);
    for (const double value : row.values) {
      fields.push_back(util::format_double(value));
    }
    for (std::size_t m = 0; m < measures.size(); ++m) {
      fields.push_back(m < row.measures.size()
                           ? util::format_double(row.measures[m])
                           : "");
    }
    fields.push_back(csv_field(row.error));
    out << util::join(fields, ",") << '\n';
  }
  return out.str();
}

std::string SweepTable::to_json() const {
  std::ostringstream out;
  out << "{\n  \"structure\": ";
  json_string(out, hex_fingerprint(structure));
  out << ",\n  \"derivations\": " << derivations
      << ",\n  \"states\": " << state_count
      << ",\n  \"transitions\": " << transition_count
      << ",\n  \"points_from_cache\": " << points_from_cache
      << ",\n  \"seconds\": " << util::format_double(seconds)
      << ",\n  \"axes\": [";
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a != 0) out << ", ";
    json_string(out, axes[a]);
  }
  out << "],\n  \"measures\": [";
  for (std::size_t m = 0; m < measures.size(); ++m) {
    if (m != 0) out << ", ";
    json_string(out, measures[m]);
  }
  out << "],\n  \"rows\": [\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const SweepRow& row = rows[r];
    out << "    {\"values\": [";
    for (std::size_t v = 0; v < row.values.size(); ++v) {
      if (v != 0) out << ", ";
      out << util::format_double(row.values[v]);
    }
    out << "], \"measures\": [";
    for (std::size_t m = 0; m < row.measures.size(); ++m) {
      if (m != 0) out << ", ";
      out << util::format_double(row.measures[m]);
    }
    out << "], \"iterations\": " << row.iterations
        << ", \"residual\": " << util::format_double(row.residual);
    if (!row.error.empty()) {
      out << ", \"error\": ";
      json_string(out, row.error);
    }
    out << "}" << (r + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace choreo::sweep
