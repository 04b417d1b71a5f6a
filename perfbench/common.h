/**
 * @file
 * Small helpers shared by the benchmark's two programs: a monotonic
 * clock, order statistics, a digest, peak-RSS lookup and a flat JSON
 * object writer. Nothing here measures the system under test.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
millisBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile @p p in [0, 100]; 0 for an empty sample. */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 * values.size());
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/**
 * The highest of p99, p90, p75 and p50 that has at least ten samples
 * beyond it in a sample of @p n (p50 when none has).
 */
inline double
tailRank(std::size_t n)
{
    for (const double p : {99.0, 90.0, 75.0})
        if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0)
            return p;
    return 50.0;
}

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

/** FNV-1a over bytes; doubles are mixed by bit pattern. */
class Digest
{
  public:
    void bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ ^= p[i];
            state_ *= 0x100000001b3ULL;
        }
    }
    void mix(std::uint64_t v) { bytes(&v, sizeof v); }
    void mix(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        mix(bits);
    }
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(state_));
        return buf;
    }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/** Peak resident set (VmHWM) of process @p pid ("self" or a number), MiB. */
inline double
peakRssMib(const std::string &pid = "self")
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = 0.0;
            fields >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

/** A flat JSON object written in insertion order. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        return raw(key, buf);
    }
    JsonObject &str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }
    JsonObject &boolean(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        fields_.emplace_back(key, json);
        return *this;
    }
    std::string render() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            if (i > 0)
                out += ",";
            out += "\"" + fields_[i].first + "\":" + fields_[i].second;
        }
        return out + "}";
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** A JSON array of numbers. */
inline std::string
jsonList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "",
                      std::isfinite(values[i]) ? values[i] : 0.0);
        out += buf;
    }
    return out + "]";
}

/** `--name=value` arguments after the sub-command. */
inline std::map<std::string, std::string>
parseArgs(int argc, char **argv, int first)
{
    std::map<std::string, std::string> args;
    for (int i = first; i < argc; ++i) {
        const std::string token = argv[i];
        if (token.rfind("--", 0) != 0)
            continue;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            args[token.substr(2)] = "1";
        else
            args[token.substr(2, eq - 2)] = token.substr(eq + 1);
    }
    return args;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
