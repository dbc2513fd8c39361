#include "redundancy/registry.h"

#include <memory>
#include <string>

#include "common/expect.h"
#include "common/spec.h"
#include "redundancy/adaptive.h"
#include "redundancy/coded.h"
#include "redundancy/credibility.h"
#include "redundancy/iterative.h"
#include "redundancy/iterative_naive.h"
#include "redundancy/progressive.h"
#include "redundancy/self_tuning.h"
#include "redundancy/traditional.h"
#include "redundancy/weighted.h"

namespace smartred::redundancy {
namespace {

using spec::did_you_mean;
using spec::Params;

const char* const kTechniqueList =
    "traditional (tr), progressive (pr), iterative (ir), naive, weighted, "
    "selftuning, adaptive, credibility, coded";

constexpr std::string_view kTechniqueNames[] = {
    "traditional", "tr",         "progressive", "pr",       "iterative",
    "ir",          "naive",      "weighted",    "selftuning",
    "adaptive",    "credibility", "coded",
};

/// The factory `technique` names, built from `params`. Parameter values
/// reach the strategy's constructor unchecked: it is their only check.
std::shared_ptr<StrategyFactory> build(std::string_view technique,
                                       Params& params) {
  if (technique == "traditional" || technique == "tr") {
    const int k = params.get_int("k");
    params.finish("k");
    return std::make_shared<TraditionalFactory>(k);
  }
  if (technique == "progressive" || technique == "pr") {
    const int k = params.get_int("k");
    params.finish("k");
    return std::make_shared<ProgressiveFactory>(k);
  }
  if (technique == "iterative" || technique == "ir") {
    const int d = params.get_int("d");
    params.finish("d");
    return std::make_shared<IterativeFactory>(d);
  }
  if (technique == "naive") {
    const double r = params.get_double("r");
    const double target = params.get_double("R");
    params.finish("r, R");
    return std::make_shared<IterativeNaiveFactory>(r, target);
  }
  if (technique == "weighted") {
    // The registry can only express a uniform pool — per-node lookups need
    // code. r doubles as every node's reliability and the typical gain.
    const double r = params.get_double("r");
    const double target = params.get_double("R");
    params.finish("r, R");
    return std::make_shared<WeightedIterativeFactory>(
        [r](NodeId) { return r; }, r, target);
  }
  if (technique == "selftuning") {
    SelfTuningConfig config;
    config.target_reliability = params.get_double("R");
    config.initial_margin = params.get_int("initial", config.initial_margin);
    config.warmup_votes = params.get_int("warmup", config.warmup_votes);
    config.max_margin = params.get_int("max", config.max_margin);
    config.min_usable_estimate =
        params.get_double("min_estimate", config.min_usable_estimate);
    config.forgetting = params.get_double("forgetting", config.forgetting);
    params.finish("R, initial, warmup, max, min_estimate, forgetting");
    return std::make_shared<SelfTuningFactory>(config);
  }
  if (technique == "adaptive") {
    const int quorum = params.get_int("quorum");
    const int trust = params.get_int("trust");
    params.finish("quorum, trust");
    return std::make_shared<AdaptiveFactory>(
        std::make_shared<TrustBook>(trust), quorum);
  }
  if (technique == "credibility") {
    const double threshold = params.get_double("threshold");
    const double fault = params.get_double("f", 0.2);
    params.finish("threshold, f");
    return std::make_shared<CredibilityFactory>(
        std::make_shared<ReputationBook>(fault), threshold);
  }
  if (technique == "coded") {
    CodedConfig config;
    config.n = params.get_int("n");
    config.k = params.get_int("k");
    config.g = params.get_int("g", config.n);
    config.d = params.get_int("d", 1);
    config.v = params.get_int("v", -1);
    params.finish("n, k, g, d, v");
    return std::make_shared<CodedFactory>(config);
  }
  throw SpecError("unknown redundancy technique '" + std::string(technique) +
                  "' (known: " + kTechniqueList + ")" +
                  did_you_mean(technique, kTechniqueNames));
}

}  // namespace

std::shared_ptr<StrategyFactory> make_strategy(std::string_view raw_spec) {
  const auto [technique, body] = spec::split(raw_spec);
  Params params("strategy spec '" + std::string(technique) + "'", body);
  try {
    return build(technique, params);
  } catch (const PreconditionError& error) {
    // An out-of-range value, rejected by the constructor that checks it.
    std::string message = "strategy spec '";
    message += raw_spec;
    message += "': ";
    message += error.reason();
    throw SpecError(message);
  }
}

}  // namespace smartred::redundancy
