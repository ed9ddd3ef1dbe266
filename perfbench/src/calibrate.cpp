/**
 * @file
 * calibrate: a fixed, library-independent kernel timed in slices
 * interleaved with the other phases, giving the host's speed during
 * the run. On shared 4-vCPU cloud hosts the same computation runs up to
 * 1.6x slower for minutes at a time (same inputs, same binary, CPU
 * time equal to wall time). The kernel slows in step, so run.py scales
 * every timing by its median to the speed of a reference host. Its mix
 * (sorting, hashing, small allocations) resembles the simulator's, and
 * it calls nothing in the library, so a change to the library never
 * moves it.
 */
#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench
{

namespace
{

class Calibrate final : public Phase
{
  public:
    void setUp(Report&) override { expected_ = kernel(); }

    void
    measureFor(double ms, Report&) override
    {
        // The first pass after the process sat idle pays for cold
        // caches and a sleeping core; it measures wake-up, not speed.
        mismatches_ += kernel() != expected_ ? 1 : 0;
        const Clock::time_point start = Clock::now();
        do {
            const Clock::time_point t0 = Clock::now();
            mismatches_ += kernel() != expected_ ? 1 : 0;
            samplesMs_.push_back(msSince(t0));
        } while (msSince(start) < ms);
    }

    void
    finish(Report& report) override
    {
        report.metric("host.calib_ms", median(samplesMs_), "ms",
                      samplesMs_.size());
        report.attempt(mismatches_ == 0, "calibration kernel");
    }

  private:
    /** Fixed work; returns a checksum so none of it is optimized out. */
    static std::uint64_t
    kernel()
    {
        std::mt19937_64 rng(42);
        std::vector<std::uint32_t> v(200000);
        for (std::uint32_t& x : v)
            x = static_cast<std::uint32_t>(rng());
        std::sort(v.begin(), v.end());
        std::unordered_map<std::uint32_t, std::uint64_t> m;
        for (std::size_t i = 0; i < 60000; ++i)
            m[v[(i * 7919) % v.size()]] += i;
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < 60000; ++i) {
            const auto it = m.find(v[(i * 104729) % v.size()]);
            if (it != m.end())
                sum += it->second;
        }
        std::vector<std::vector<std::uint32_t>> lists;
        for (std::uint32_t i = 0; i < 20000; ++i)
            lists.emplace_back(i % 17 + 1, i);
        for (const auto& l : lists)
            sum += l.back();
        return sum;
    }

    std::vector<double> samplesMs_;
    std::uint64_t expected_ = 0;
    std::size_t mismatches_ = 0;
};

} // namespace

std::unique_ptr<Phase>
makeCalibrate(const Options&)
{
    return std::make_unique<Calibrate>();
}

} // namespace perfbench
