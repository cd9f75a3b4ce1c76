/**
 * @file
 * perfbench: one workload per invocation.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--git-sha <sha>]
 *   perfbench --smoke [--work-dir <dir>]     all workloads, small, checked
 *   perfbench --self-test [--work-dir <dir>] storage-wrapper equivalence
 *
 * A workload run prints a metadata line and, last, one JSON object
 * with the keys correct, attempted, failed and metrics.  It exits 1
 * when an output check fails and 2 on a usage error.
 */
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>] "
                 "[--git-sha <sha>] | --smoke | --self-test\n",
                 why);
    return 2;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
print_result(const Options &opts, const Result &r)
{
    std::string meta = "{\"meta\": {";
    auto pairs = host_meta(opts);
    pairs.insert(pairs.end(), r.meta.begin(), r.meta.end());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        meta += (i ? ", " : "") + json_string(pairs[i].first) + ": " +
                pairs[i].second;
    }
    meta += "}, \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
        meta += (i ? ", " : "") + json_string(r.failures[i]);
    }
    std::printf("%s]}\n", meta.c_str());

    std::string out = "{\"correct\": ";
    out += r.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        out += (i ? ", " : "") + json_string(m.name) +
               ": {\"value\": " + number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::printf("%s}}\n", out.c_str());
    std::fflush(stdout);
}

Result
run_workload(const Options &opts)
{
    if (opts.workload == "svc-open") {
        return run_service_workload(opts);
    }
    return run_walk_workload(opts);
}

/** Every workload once at smoke scale, untraced and traced. */
int
smoke(Options opts)
{
    int status = 0;
    for (const std::string &failure : device_self_test(opts.work_dir)) {
        std::fprintf(stderr, "self-test: %s\n", failure.c_str());
        status = 1;
    }
    opts.smoke = true;
    opts.seconds = 0.4;
    for (const std::string &name : workload_names()) {
        for (const bool trace : {false, true}) {
            opts.workload = name;
            opts.trace = trace;
            const Result r = run_workload(opts);
            std::printf("smoke %s trace=%d: correct=%d attempted=%llu "
                        "failed=%llu metrics=%zu\n",
                        name.c_str(), trace ? 1 : 0, r.correct() ? 1 : 0,
                        static_cast<unsigned long long>(r.attempted),
                        static_cast<unsigned long long>(r.failed),
                        r.metrics.size());
            for (const std::string &f : r.failures) {
                std::fprintf(stderr, "  %s\n", f.c_str());
            }
            if (!r.correct() || r.attempted == 0 || r.metrics.empty()) {
                status = 1;
            }
        }
    }
    return status;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opts;
    bool smoke_mode = false;
    bool self_test = false;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--smoke") {
            smoke_mode = true;
        } else if (arg == "--self-test") {
            self_test = true;
        } else if (!has_value) {
            return usage(("missing value for " + arg).c_str());
        } else if (arg == "--workload") {
            opts.workload = argv[++i];
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            opts.seconds = std::strtod(argv[++i], nullptr);
            have_seconds = opts.seconds > 0.0;
        } else if (arg == "--trace") {
            const std::string v = argv[++i];
            if (v != "0" && v != "1") {
                return usage("--trace takes 0 or 1");
            }
            opts.trace = v == "1";
            have_trace = true;
        } else if (arg == "--work-dir") {
            opts.work_dir = argv[++i];
        } else if (arg == "--git-sha") {
            opts.git_sha = argv[++i];
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    ::mkdir(opts.work_dir.c_str(), 0755);

    try {
        if (self_test) {
            int status = 0;
            for (const std::string &f : device_self_test(opts.work_dir)) {
                std::fprintf(stderr, "self-test: %s\n", f.c_str());
                status = 1;
            }
            std::printf("self-test %s\n", status == 0 ? "passed" : "FAILED");
            return status;
        }
        if (smoke_mode) {
            return smoke(opts);
        }
        bool known = false;
        for (const std::string &name : workload_names()) {
            known = known || name == opts.workload;
        }
        if (!known) {
            return usage("unknown or missing --workload");
        }
        if (!have_seed || !have_seconds || !have_trace) {
            return usage("--seed, --seconds and --trace are required");
        }
        Result r = run_workload(opts);
        for (Metric &m : r.metrics) {
            // JSON has no NaN or infinity; a metric without a value
            // means the run did not do its work.
            if (!std::isfinite(m.value)) {
                r.check(false, m.name + " is not a finite number");
                m.value = 0.0;
            }
        }
        print_result(opts, r);
        for (const std::string &f : r.failures) {
            std::fprintf(stderr, "check failed: %s\n", f.c_str());
        }
        return r.correct() ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
