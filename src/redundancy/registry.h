// String-keyed construction of redundancy strategies.
//
// Every bench and tool used to hand-roll its factory wiring (pick the
// class, parse its own flags, thread shared books by hand). The registry
// replaces that with one tiny spec grammar:
//
//   technique[:key=value[,key=value...]]
//
// e.g. "iterative:d=4", "traditional:k=5", "selftuning:R=0.999",
// "adaptive:quorum=3,trust=10". Unknown techniques and unknown or missing
// keys raise SpecError with a message listing what *is* valid, so a typo'd
// --strategy flag fails loudly instead of silently running the wrong
// experiment.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/spec.h"
#include "redundancy/strategy.h"

namespace smartred::redundancy {

/// A malformed or unknown strategy spec. The message names the offending
/// part and lists the valid alternatives. (Shared with the assignment
/// registry — one grammar, one error type.)
using SpecError = spec::SpecError;

/// Builds a factory from a spec string. Throws SpecError on unknown
/// technique, unknown/duplicate/missing keys, unparsable values, or a value
/// the strategy's constructor rejects (the message then names the spec).
[[nodiscard]] std::shared_ptr<StrategyFactory> make_strategy(
    std::string_view spec);

}  // namespace smartred::redundancy
