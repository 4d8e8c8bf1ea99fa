/**
 * @file
 * CLI driver for the protocol model checker (src/model/, DESIGN.md §16).
 *
 *   spur_model explore [--procs=N] [--policy=NAME] [--ref=NAME]
 *       Exhaustively enumerates the reachable protocol state space for
 *       each selected (dirty, ref) policy pair (default: all pairs) at
 *       N processors (default 2, max 3), checking every state and
 *       transition against the M1..M10 invariants and the spec table's
 *       totality/determinism.  Prints one summary line per
 *       configuration; on a violation, prints the shortest stimulus
 *       counterexample trace and exits 1.
 *
 *   spur_model conform [--procs=N] [--policy=NAME] [--ref=NAME]
 *                      [--impl=uni|mp]
 *       Differential conformance: replays every reachable (state,
 *       stimulus) pair against the real transition code and asserts the
 *       implementation's successor equals the spec's.  --impl=uni
 *       drives SpurSystem::AccessBatch (the SoA hot path; procs must
 *       be 1), --impl=mp drives MpSpurSystem::Access; the default
 *       drives mp, plus uni when procs is 1.  Exit 1 on divergence,
 *       with the offending stimulus trace.
 *
 * Each subcommand accepts only the flags listed for it, in the
 * "--name=value" form (src/common/args.h); anything else is a usage
 * error, exit 2.
 */
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/args.h"
#include "src/model/conform.h"
#include "src/model/explore.h"
#include "src/model/spec.h"

namespace {

using spur::model::Conform;
using spur::model::ConformResult;
using spur::model::Explore;
using spur::model::ExploreResult;
using spur::model::Implementation;
using spur::model::kMaxProcs;
using spur::model::ModelConfig;

int
Usage()
{
    const std::vector<spur::ToolCommand> commands = {
        {"explore [--procs=N] [--policy=NAME] [--ref=NAME]",
         "enumerate the reachable protocol state space and check the "
         "M1..M10 invariants plus spec totality/determinism",
         {{"--procs=N", "processors, 1..3 (default 2)"},
          {"--policy=P",
           "dirty policy (MIN/FAULT/FLUSH/SPUR/WRITE/SPUR-PROT/WRITE-HW) "
           "or 'all' (default)"},
          {"--ref=R",
           "reference policy (MISS/REF/NOREF) or 'all' (default)"}}},
        {"conform [--procs=N] [--policy=NAME] [--ref=NAME] "
         "[--impl=uni|mp]",
         "additionally drive the real cache/bus/system code over every "
         "reachable (state, stimulus) pair and require the "
         "implementation successor to equal the spec successor",
         {{"--impl=I",
           "'uni' (SpurSystem batch path, needs --procs=1), 'mp' "
           "(MpSpurSystem), default both where applicable"}}},
    };
    std::cerr << spur::FormatToolUsage(
        "spur_model",
        "Exhaustive protocol model checker (DESIGN.md §16).", commands);
    return 2;
}

std::string
ConfigLabel(const ModelConfig& config)
{
    return "procs=" + std::to_string(config.procs) +
           " dirty=" + spur::policy::ToString(config.dirty) +
           " ref=" + spur::policy::ToString(config.ref);
}

int
RunExplore(const ModelConfig& config)
{
    const ExploreResult result = Explore(config);
    if (!result.ok) {
        std::printf("explore %s: FAIL\n%s", ConfigLabel(config).c_str(),
                    result.problem.c_str());
        return 1;
    }
    std::string fires;
    for (const auto& [rule, count] : result.rule_fires) {
        fires += " " + rule + "=" + std::to_string(count);
    }
    std::printf("explore %s: ok — %zu states, %llu transitions, depth "
                "%u\n  rule fires:%s\n",
                ConfigLabel(config).c_str(), result.states.size(),
                static_cast<unsigned long long>(result.transitions),
                result.max_depth, fires.c_str());
    return 0;
}

int
RunConform(const ModelConfig& config, Implementation impl)
{
    const ConformResult result = Conform(config, impl);
    if (!result.ok) {
        std::printf("conform %s impl=%s: FAIL\n%s",
                    ConfigLabel(config).c_str(), ToString(impl),
                    result.problem.c_str());
        return 1;
    }
    std::printf("conform %s impl=%s: ok — %llu states replayed, %llu "
                "(state, stimulus) pairs conform\n",
                ConfigLabel(config).c_str(), ToString(impl),
                static_cast<unsigned long long>(result.states_replayed),
                static_cast<unsigned long long>(result.pairs_checked));
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string mode = (argc > 1) ? argv[1] : "";
    if (mode != "explore" && mode != "conform") {
        return Usage();
    }
    std::vector<spur::Flag> flags = {
        {"procs", spur::FlagKind::kUnsigned, 1, kMaxProcs},
        {"policy", spur::FlagKind::kText},
        {"ref", spur::FlagKind::kText}};
    if (mode == "conform") {
        flags.push_back({.name = "impl",
                         .kind = spur::FlagKind::kText,
                         .choices = {"uni", "mp", "all"}});
    }
    const spur::Args args(argc, argv, std::move(flags),
                          /*max_positionals=*/0, /*first=*/2);
    const uint64_t procs = args.GetUnsigned("procs", 2);
    const std::string policy = args.GetString("policy", "all");
    const std::string ref = args.GetString("ref", "all");
    const std::string impl =
        (mode == "conform") ? args.GetString("impl", "all") : "all";

    std::vector<spur::policy::DirtyPolicyKind> dirties;
    if (policy == "all") {
        dirties = {spur::policy::DirtyPolicyKind::kMin,
                   spur::policy::DirtyPolicyKind::kFault,
                   spur::policy::DirtyPolicyKind::kFlush,
                   spur::policy::DirtyPolicyKind::kSpur,
                   spur::policy::DirtyPolicyKind::kWrite,
                   spur::policy::DirtyPolicyKind::kSpurProt,
                   spur::policy::DirtyPolicyKind::kWriteHw};
    } else {
        dirties = {spur::policy::ParseDirtyPolicy(policy)};
    }
    std::vector<spur::policy::RefPolicyKind> refs;
    if (ref == "all") {
        refs = {spur::policy::RefPolicyKind::kMiss,
                spur::policy::RefPolicyKind::kRef,
                spur::policy::RefPolicyKind::kNoRef};
    } else {
        refs = {spur::policy::ParseRefPolicy(ref)};
    }
    std::vector<Implementation> impls;
    if (impl == "uni") {
        if (procs != 1) {
            std::fprintf(stderr,
                         "spur_model: --impl=uni requires --procs=1\n");
            return 2;
        }
        impls = {Implementation::kUniprocessorBatch};
    } else if (impl == "mp") {
        impls = {Implementation::kMultiprocessor};
    } else {
        if (procs == 1) {
            impls.push_back(Implementation::kUniprocessorBatch);
        }
        impls.push_back(Implementation::kMultiprocessor);
    }

    int failures = 0;
    for (const spur::policy::DirtyPolicyKind dirty : dirties) {
        for (const spur::policy::RefPolicyKind ref_kind : refs) {
            ModelConfig config;
            config.procs = static_cast<unsigned>(procs);
            config.dirty = dirty;
            config.ref = ref_kind;
            if (mode == "explore") {
                failures += RunExplore(config);
            } else {
                for (const Implementation i : impls) {
                    failures += RunConform(config, i);
                }
            }
        }
    }
    if (failures > 0) {
        std::fprintf(stderr, "spur_model: %d configuration(s) FAILED\n",
                     failures);
        return 1;
    }
    return 0;
}
