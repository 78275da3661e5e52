/**
 * @file
 * perfbench_run: one run of one perfbench workload.
 *
 *   perfbench_run --workload W --seed N --seconds S --trace 0|1
 *                 --work-dir DIR
 *
 * Prints report lines, then one JSON result line. Exits 0 only when
 * every operation succeeded and every output matched its check.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.hh"

namespace
{

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench_run: %s\nusage: perfbench_run --workload "
                 "paper_matrix|tagged_matrix|shared_scenarios|"
                 "service_mix --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 message);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunArgs args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || *end != '\0')
                return usage("--seed must be a whole number");
        } else if (key == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || args.seconds <= 0)
                return usage("--seconds must be a positive number");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            args.trace = value == "1";
        } else if (key == "--work-dir") {
            args.workDir = value;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("options come in --key value pairs");
    if (args.workDir.empty())
        return usage("--work-dir is required");
    std::error_code made;
    std::filesystem::create_directories(args.workDir, made);
    if (made)
        return usage("cannot create --work-dir");

    if (perfbench::isMatrixWorkload(args.workload))
        return perfbench::runMatrixWorkload(args);
    if (args.workload == "service_mix")
        return perfbench::runServiceWorkload(args);
    return usage(("unknown workload '" + args.workload + "'").c_str());
}
