/**
 * @file
 * Output checks shared by the workloads.
 *
 * The daemon's per-response checksum is the 64-bit sum of the raw
 * 32-bit lanes of the elements that request produced
 * (service::checksumLanes). Because the sum is additive, the
 * responses of one tenant add up to the checksum of the tenant's
 * whole output stream, which a bytecode-VM run of the same total
 * iteration count reproduces.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "interp/value.h"
#include "service/protocol.h"

namespace perfbench {

/** Element count plus additive lane checksum of an output stream. */
struct LaneSum {
    std::uint64_t checksum = 0;
    std::int64_t elements = 0;

    void add(std::uint64_t c, std::int64_t n)
    {
        checksum += c;  // Wraps mod 2^64, like the daemon's sum.
        elements += n;
    }

    bool operator==(const LaneSum& o) const
    {
        return checksum == o.checksum && elements == o.elements;
    }
};

/** LaneSum of @p values from index @p first on. */
inline LaneSum
laneSum(const std::vector<macross::interp::Value>& values,
        std::size_t first = 0)
{
    LaneSum s;
    if (first < values.size()) {
        s.add(macross::service::checksumLanes(values, first),
              static_cast<std::int64_t>(values.size() - first));
    }
    return s;
}

/** Parse 16 lowercase hex digits (service::hex64's format). */
inline std::optional<std::uint64_t>
parseHex64(const std::string& s)
{
    if (s.size() != 16)
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : s) {
        int d;
        if (c >= '0' && c <= '9')
            d = c - '0';
        else if (c >= 'a' && c <= 'f')
            d = c - 'a' + 10;
        else
            return std::nullopt;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    return v;
}

/** True when @p a and @p b agree bitwise on their first @p n
 *  elements (false when either is shorter). */
inline bool
samePrefix(const std::vector<macross::interp::Value>& a,
           const std::vector<macross::interp::Value>& b, std::size_t n)
{
    if (a.size() < n || b.size() < n)
        return false;
    for (std::size_t i = 0; i < n; ++i) {
        if (!(a[i] == b[i]))
            return false;
    }
    return true;
}

} // namespace perfbench
