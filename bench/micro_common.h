/**
 * @file
 * Shared main() for the google-benchmark micro benches.  They accept
 *
 *   --json=FILE     translated to google-benchmark's own JSON reporter
 *                   (--benchmark_out=FILE --benchmark_out_format=json)
 *   --benchmark_*   google-benchmark's flags, forwarded unchanged
 *
 * and nothing else: any other argument (a table bench's --refs or
 * --jobs included; bench/run_all.sh passes those to the other benches
 * only), or a --benchmark_* flag google-benchmark does not know, is a
 * usage error, named on stderr with exit 2 before anything runs.
 */
#ifndef SPUR_BENCH_MICRO_COMMON_H_
#define SPUR_BENCH_MICRO_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#define SPUR_MICRO_BENCHMARK_MAIN()                                         \
    int main(int argc, char** argv)                                         \
    {                                                                       \
        return spur::bench_micro::Main(argc, argv);                         \
    }

namespace spur::bench_micro {

inline int
Main(int argc, char** argv)
{
    std::vector<std::string> storage;
    storage.reserve(static_cast<size_t>(argc) + 1);
    storage.emplace_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strncmp(arg, "--json=", 7) == 0) {
            storage.emplace_back(std::string("--benchmark_out=") +
                                 (arg + 7));
            storage.emplace_back("--benchmark_out_format=json");
        } else if (std::strncmp(arg, "--benchmark_", 12) == 0) {
            storage.emplace_back(arg);
        } else {
            std::string name = argv[0];
            name.erase(0, name.find_last_of('/') + 1);
            std::fprintf(stderr,
                         "%s: unknown argument '%s' (accepted: "
                         "--json=FILE --benchmark_*)\n",
                         name.c_str(), arg);
            return 2;
        }
    }

    std::vector<char*> rewritten;
    rewritten.reserve(storage.size());
    for (std::string& s : storage) {
        rewritten.push_back(s.data());
    }
    int rewritten_argc = static_cast<int>(rewritten.size());
    benchmark::Initialize(&rewritten_argc, rewritten.data());
    if (benchmark::ReportUnrecognizedArguments(rewritten_argc,
                                               rewritten.data())) {
        return 2;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

}  // namespace spur::bench_micro

#endif  // SPUR_BENCH_MICRO_COMMON_H_
