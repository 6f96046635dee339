#include "pepa/semantics.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace choreo::pepa {

namespace {

/// The stack of constants currently being expanded, for unguarded-recursion
/// detection.  One stack per thread: exploration workers recurse through the
/// shared Semantics concurrently, and the stack is empty between top-level
/// calls, so a thread_local is exactly the per-call-tree state needed.
thread_local std::vector<ConstantId> t_expanding;

}  // namespace

namespace detail {

ExpandingGuard::ExpandingGuard(const ProcessArena& arena,
                               ConstantId constant) {
  if (std::find(t_expanding.begin(), t_expanding.end(), constant) !=
      t_expanding.end()) {
    throw util::ModelError(
        util::msg("unguarded recursion through constant '",
                  arena.constant_name(constant), "'"));
  }
  t_expanding.push_back(constant);
}

ExpandingGuard::~ExpandingGuard() { t_expanding.pop_back(); }

}  // namespace detail

template class BasicSemantics<RateAlgebra>;

}  // namespace choreo::pepa
