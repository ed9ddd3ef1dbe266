/**
 * @file
 * teaal_perfbench — one phase of the repository benchmark per process
 * (so peak RSS belongs to that phase alone):
 *
 *   teaal_perfbench --phase warm_sim|cold_explore|serve_mix|calibrate
 *                   --dataset wi|po --seed N --trace 0|1
 *                   [--tiny] [--perturb] [--work-dir DIR]
 *
 * The process sets up three times (reporting the median as setup_s),
 * prints "@ready", then obeys commands on stdin, one per line:
 *
 *   run <ms>   take samples for about <ms> milliseconds, then "@done"
 *   finish     print every metric (name, value, unit, sample count)
 *              and, as the last line, a JSON object with the metrics
 *              and the correctness gate's attempted/failed counts
 *
 * perfbench/run.py starts one process per phase and interleaves their
 * slices. Exit status 1 means some operation failed or produced an
 * incorrect result, 2 that the phase could not run at all.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace
{

perfbench::Options
parseArgs(int argc, char** argv)
{
    perfbench::Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perfbench: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--phase")
            opts.phase = value();
        else if (arg == "--dataset")
            opts.dataset = value();
        else if (arg == "--seed")
            opts.seed = std::stoull(value());
        else if (arg == "--trace")
            opts.trace = value() == "1";
        else if (arg == "--work-dir")
            opts.workDir = value();
        else if (arg == "--tiny")
            opts.tiny = true;
        else if (arg == "--perturb")
            opts.perturb = true;
        else {
            std::cerr << "perfbench: unknown argument " << arg << "\n";
            std::exit(2);
        }
    }
    return opts;
}

std::unique_ptr<perfbench::Phase>
makePhase(const perfbench::Options& opts)
{
    if (opts.phase == "warm_sim")
        return perfbench::makeWarmSim(opts);
    if (opts.phase == "cold_explore")
        return perfbench::makeColdExplore(opts);
    if (opts.phase == "serve_mix")
        return perfbench::makeServeMix(opts);
    if (opts.phase == "calibrate")
        return perfbench::makeCalibrate(opts);
    std::cerr << "perfbench: unknown phase '" << opts.phase << "'\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    const perfbench::Options opts = parseArgs(argc, argv);
    perfbench::Report report;
    try {
        std::unique_ptr<perfbench::Phase> phase = makePhase(opts);
        perfbench::Tracer::instance().setEnabled(opts.trace);
        std::vector<double> setupS;
        for (int i = 0; i < 3; ++i) {
            const perfbench::Clock::time_point t0 =
                perfbench::Clock::now();
            phase->setUp(report);
            setupS.push_back(perfbench::msSince(t0) / 1e3);
        }
        report.metric("setup_s", perfbench::median(setupS), "s",
                      setupS.size());
        perfbench::Tracer::instance().setEnabled(false);
        std::printf("@ready\n");
        std::fflush(stdout);

        std::string line;
        while (std::getline(std::cin, line)) {
            if (line.rfind("run ", 0) == 0) {
                phase->measureFor(std::stod(line.substr(4)), report);
                std::printf("@done\n");
                std::fflush(stdout);
            } else if (line == "finish") {
                phase->finish(report);
                if (opts.trace)
                    perfbench::reportSelfTimes(report, opts);
                report.print(opts);
                return report.failed() == 0 ? 0 : 1;
            } else {
                std::cerr << "perfbench: unknown command '" << line
                          << "'\n";
                return 2;
            }
        }
        std::cerr << "perfbench: input closed before finish\n";
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opts.phase << " aborted: " << e.what()
                  << "\n";
        return 2;
    }
}
