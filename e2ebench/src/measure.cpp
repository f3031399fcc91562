#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <utility>

namespace e2ebench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
weightedPercentile(const std::vector<double> &samples,
                   const std::vector<double> &weights, double q)
{
    std::vector<std::pair<double, double>> points;
    double total = 0.0;
    for (size_t i = 0; i < samples.size() && i < weights.size(); ++i) {
        if (weights[i] > 0.0) {
            points.emplace_back(samples[i], weights[i]);
            total += weights[i];
        }
    }
    if (points.empty())
        return 0.0;
    std::sort(points.begin(), points.end());
    const double target = std::clamp(q, 0.0, 1.0) * total;
    double below = 0.0, prev_pos = 0.0, prev_value = points.front().first;
    for (size_t i = 0; i < points.size(); ++i) {
        const double pos = below + points[i].second / 2.0;
        if (target <= pos) {
            if (i == 0)
                return points[i].first;
            const double frac = (target - prev_pos) / (pos - prev_pos);
            return prev_value + (points[i].first - prev_value) * frac;
        }
        below += points[i].second;
        prev_pos = pos;
        prev_value = points[i].first;
    }
    return points.back().first;
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
processCpuSeconds()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
hostStealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    uint64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
             softirq = 0, steal = 0;
    if (!(stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >>
          softirq >> steal) ||
        cpu != "cpu")
        return 0.0;
    const long hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? static_cast<double>(steal) / static_cast<double>(hz)
                  : 0.0;
}

StealMeter::StealMeter() : startNs_(nowNs()), startSteal_(hostStealSeconds())
{}

double
StealMeter::share() const
{
    const double wall = nsToSeconds(nowNs() - startNs_) * onlineCpus();
    return wall > 0.0 ? (hostStealSeconds() - startSteal_) / wall : 0.0;
}

std::vector<size_t>
leastStolenHalf(const std::vector<double> &steal)
{
    std::vector<size_t> order(steal.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return steal[a] < steal[b];
    });
    order.resize((order.size() + 1) / 2);
    return order;
}

unsigned
onlineCpus()
{
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

unsigned
multiThreadCount()
{
    return std::min(4u, onlineCpus());
}

bool
Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        errors.push_back(what);
    return ok;
}

} // namespace e2ebench
