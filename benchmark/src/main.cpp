/**
 * @file
 * hermes-bench: runs one benchmark workload against the HERMES
 * runtime and prints its metrics as JSON lines on stdout.
 *
 *   hermes-bench --workload <name> --seed <n> --seconds <s>
 *                [--trace 0|1] [--out <dir>]
 *
 * Workloads: serve_sparse, serve_steady, fork_join_fine,
 * paper_kernels (see benchmark/README.md). The last line is
 * {"event": "result", ...}; exit code 0 when every output check
 * passed, 1 when one failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.hpp"
#include "platform/affinity.hpp"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "hermes-bench: %s\nusage: hermes-bench --workload "
                 "serve_sparse|serve_steady|fork_join_fine|paper_kernels "
                 "--seed N --seconds S [--trace 0|1] [--out DIR]\n",
                 why.c_str());
    std::exit(2);
}

bench::Options
parse(int argc, char **argv)
{
    bench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
                usage("--seconds must be in (0, 3600]");
        } else if (flag == "--trace") {
            opt.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else if (flag == "--out") {
            opt.out = value;
        } else {
            usage("unknown flag " + flag);
        }
        if (end && *end != '\0')
            usage("bad number for " + flag + ": " + value);
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

void
printResult(const bench::Options &opt, const bench::Result &r)
{
    std::printf("{\"event\": \"result\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
                "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const auto &m = r.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::Options opt = parse(argc, argv);

    // Workers take cores 0..n-2 (static pinning); the driver thread,
    // which paces arrivals and samples power, takes the last core.
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores > 1)
        hermes::platform::pinSelfToCore(cores - 1);

    bench::Result r;
    if (opt.workload == "serve_sparse")
        r = bench::runServe(opt, 20'000.0);
    else if (opt.workload == "serve_steady")
        r = bench::runServe(opt, 60'000.0);
    else if (opt.workload == "fork_join_fine")
        r = bench::runForkJoin(opt);
    else if (opt.workload == "paper_kernels")
        r = bench::runPaperKernels(opt);
    else
        usage("unknown workload " + opt.workload);

    printResult(opt, r);
    return r.failed == 0 ? 0 : 1;
}
