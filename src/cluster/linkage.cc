#include "src/cluster/linkage.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"
#include "src/util/str.h"

namespace hiermeans {
namespace cluster {

const char *
linkageName(Linkage linkage)
{
    switch (linkage) {
      case Linkage::Single:
        return "single";
      case Linkage::Complete:
        return "complete";
      case Linkage::Average:
        return "average";
      case Linkage::Weighted:
        return "weighted";
      case Linkage::Ward:
        return "ward";
    }
    return "unknown";
}

Linkage
parseLinkage(const std::string &name)
{
    const std::string lower = str::toLower(name);
    if (lower == "single" || lower == "min")
        return Linkage::Single;
    if (lower == "complete" || lower == "max" || lower == "furthest")
        return Linkage::Complete;
    if (lower == "average" || lower == "upgma")
        return Linkage::Average;
    if (lower == "weighted" || lower == "wpgma")
        return Linkage::Weighted;
    if (lower == "ward")
        return Linkage::Ward;
    throw InvalidArgument("unknown linkage `" + name + "`");
}

LanceWilliams
lanceWilliams(Linkage linkage, std::size_t size_i, std::size_t size_j,
              std::size_t size_k)
{
    HM_REQUIRE(size_i > 0 && size_j > 0, "lanceWilliams: empty cluster");
    const double ni = static_cast<double>(size_i);
    const double nj = static_cast<double>(size_j);
    const double nk = static_cast<double>(size_k);

    LanceWilliams lw;
    switch (linkage) {
      case Linkage::Single:
        lw.alphaI = 0.5;
        lw.alphaJ = 0.5;
        lw.gamma = -0.5;
        break;
      case Linkage::Complete:
        lw.alphaI = 0.5;
        lw.alphaJ = 0.5;
        lw.gamma = 0.5;
        break;
      case Linkage::Average:
        lw.alphaI = ni / (ni + nj);
        lw.alphaJ = nj / (ni + nj);
        break;
      case Linkage::Weighted:
        lw.alphaI = 0.5;
        lw.alphaJ = 0.5;
        break;
      case Linkage::Ward:
        HM_REQUIRE(size_k > 0, "lanceWilliams: ward needs size_k");
        lw.alphaI = (ni + nk) / (ni + nj + nk);
        lw.alphaJ = (nj + nk) / (ni + nj + nk);
        lw.beta = -nk / (ni + nj + nk);
        break;
    }
    return lw;
}

double
updateDistance(const LanceWilliams &lw, double d_ki, double d_kj,
               double d_ij)
{
    return lw.alphaI * d_ki + lw.alphaJ * d_kj + lw.beta * d_ij +
           lw.gamma * std::abs(d_ki - d_kj);
}

double
mergedDistance(Linkage linkage, std::size_t size_i, std::size_t size_j,
               std::size_t size_k, double d_ki, double d_kj, double d_ij)
{
    switch (linkage) {
      case Linkage::Single:
        return std::min(d_ki, d_kj);
      case Linkage::Complete:
        return std::max(d_ki, d_kj);
      case Linkage::Average:
      case Linkage::Weighted:
      case Linkage::Ward:
        break;
    }
    return updateDistance(lanceWilliams(linkage, size_i, size_j, size_k),
                          d_ki, d_kj, d_ij);
}

bool
isMonotone(Linkage)
{
    // All five implemented criteria satisfy the Lance-Williams
    // monotonicity condition (alphaI + alphaJ + beta >= 1 is not
    // required in general; these specific criteria are known monotone).
    return true;
}

} // namespace cluster
} // namespace hiermeans
