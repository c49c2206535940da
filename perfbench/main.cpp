/**
 * @file
 * The repo benchmark's binary:
 *
 *   perfbench --workload <cold_compile|warm_tcp|fig_matrix>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--defect <looprun|response>] [--git-rev <rev>]
 *             [--src-digest <hash>] [--trace-dir <dir>]
 *
 * Prints one "metric <name> <value> <unit>" line per number, a
 * "record {...}" line with the run protocol, and as the last line
 * one JSON object {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 they are the per-layer ones from the traced run.
 * Exits 1 when an output check fails, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** JSON string literal for the small ASCII strings we emit. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (c == '\n') {
            out += "\\n";
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n",
                         flag.c_str());
            return false;
        }
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            args.trace = value == "1";
        } else if (flag == "--defect") {
            if (value != "looprun" && value != "response")
                return false;
            args.defect = value;
        } else if (flag == "--git-rev") {
            args.gitRev = value;
        } else if (flag == "--src-digest") {
            args.srcDigest = value;
        } else if (flag == "--trace-dir") {
            args.traceDir = value;
        } else {
            std::fprintf(stderr, "perfbench: unknown flag %s\n",
                         flag.c_str());
            return false;
        }
        if (end != nullptr && *end != '\0') {
            std::fprintf(stderr, "perfbench: bad value for %s: %s\n",
                         flag.c_str(), value.c_str());
            return false;
        }
    }
    return !args.workload.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1>\n");
        return 2;
    }
    Outcome out;
    if (args.workload == "cold_compile") {
        out = runColdCompile(args);
    } else if (args.workload == "warm_tcp") {
        out = runWarmTcp(args);
    } else if (args.workload == "fig_matrix") {
        out = runFigMatrix(args);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }

    for (const std::string &p : out.problems)
        std::printf("check FAILED: %s\n", p.c_str());
    for (const Metric &m : out.metrics)
        std::printf("metric %s %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());
    for (const Metric &m : out.info)
        std::printf("metric %s %s %s\n", m.name.c_str(),
                    number(m.value).c_str(), m.unit.c_str());

    out.record["workload"] = args.workload;
    out.record["seed"] = std::to_string(args.seed);
    out.record["run_seconds"] = number(args.seconds);
    out.record["trace"] = args.trace ? "1" : "0";
    out.record["nproc"] = std::to_string(hostCpus());
    out.record["compiler"] = compilerName();
    out.record["build_type"] = PERFBENCH_BUILD_TYPE;
    out.record["git_rev"] = args.gitRev;
    out.record["src_digest"] = args.srcDigest;
    std::string record;
    for (const auto &[key, value] : out.record)
        record += (record.empty() ? "{" : ", ") + quoted(key) + ": " +
                  quoted(value);
    std::printf("record %s}\n", record.c_str());

    const bool correct = out.problems.empty();
    std::string metrics;
    for (const Metric &m : out.metrics)
        metrics += (metrics.empty() ? "" : ", ") + quoted(m.name) +
                   ": {\"value\": " + number(m.value) +
                   ", \"unit\": " + quoted(m.unit) + "}";
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": "
                "%ld, \"metrics\": {%s}}\n",
                correct ? "true" : "false", out.attempted, out.failed,
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
