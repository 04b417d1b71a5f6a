#include "src/linalg/distance.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/util/error.h"
#include "src/util/str.h"

namespace hiermeans {
namespace linalg {

namespace {

void
requireSameSize(const Vector &a, const Vector &b)
{
    HM_REQUIRE(a.size() == b.size(), "distance: size mismatch "
                                         << a.size() << " vs " << b.size());
}

// Kernels over raw rows of length @p n. The Vector overloads and
// pairwiseDistances both go through these, so a pairwise entry is
// bit-identical to the metric evaluated on copies of the two rows.

double
squaredEuclideanKernel(const double *a, const double *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

double
manhattanKernel(const double *a, const double *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += std::abs(a[i] - b[i]);
    return acc;
}

double
chebyshevKernel(const double *a, const double *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc = std::max(acc, std::abs(a[i] - b[i]));
    return acc;
}

double
dotKernel(const double *a, const double *b, std::size_t n)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

/** Cosine distance from the dot product and the two norms. */
double
cosineFromParts(double dot_ab, double na, double nb)
{
    if (na == 0.0 && nb == 0.0)
        return 0.0;
    if (na == 0.0 || nb == 0.0)
        return 1.0;
    const double c = dot_ab / (na * nb);
    return 1.0 - std::clamp(c, -1.0, 1.0);
}

/** Fill the strict upper triangle with @p f and mirror it. */
template <typename F>
Matrix
fillPairwise(std::size_t n, F f)
{
    Matrix dist(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const double d = f(i, j);
            dist(i, j) = d;
            dist(j, i) = d;
        }
    }
    return dist;
}

} // namespace

const char *
metricName(Metric metric)
{
    switch (metric) {
      case Metric::Euclidean:
        return "euclidean";
      case Metric::SquaredEuclidean:
        return "sqeuclidean";
      case Metric::Manhattan:
        return "manhattan";
      case Metric::Chebyshev:
        return "chebyshev";
      case Metric::Cosine:
        return "cosine";
    }
    return "unknown";
}

Metric
parseMetric(const std::string &name)
{
    const std::string lower = str::toLower(name);
    if (lower == "euclidean" || lower == "l2")
        return Metric::Euclidean;
    if (lower == "sqeuclidean" || lower == "squared")
        return Metric::SquaredEuclidean;
    if (lower == "manhattan" || lower == "l1")
        return Metric::Manhattan;
    if (lower == "chebyshev" || lower == "linf")
        return Metric::Chebyshev;
    if (lower == "cosine")
        return Metric::Cosine;
    throw InvalidArgument("unknown metric `" + name + "`");
}

double
euclidean(const Vector &a, const Vector &b)
{
    return std::sqrt(squaredEuclidean(a, b));
}

double
squaredEuclidean(const Vector &a, const Vector &b)
{
    requireSameSize(a, b);
    return squaredEuclideanKernel(a.data(), b.data(), a.size());
}

double
manhattan(const Vector &a, const Vector &b)
{
    requireSameSize(a, b);
    return manhattanKernel(a.data(), b.data(), a.size());
}

double
chebyshev(const Vector &a, const Vector &b)
{
    requireSameSize(a, b);
    return chebyshevKernel(a.data(), b.data(), a.size());
}

double
cosine(const Vector &a, const Vector &b)
{
    requireSameSize(a, b);
    const std::size_t n = a.size();
    return cosineFromParts(dotKernel(a.data(), b.data(), n),
                           std::sqrt(dotKernel(a.data(), a.data(), n)),
                           std::sqrt(dotKernel(b.data(), b.data(), n)));
}

double
distance(Metric metric, const Vector &a, const Vector &b)
{
    switch (metric) {
      case Metric::Euclidean:
        return euclidean(a, b);
      case Metric::SquaredEuclidean:
        return squaredEuclidean(a, b);
      case Metric::Manhattan:
        return manhattan(a, b);
      case Metric::Chebyshev:
        return chebyshev(a, b);
      case Metric::Cosine:
        return cosine(a, b);
    }
    throw InternalError("unhandled metric");
}

Matrix
pairwiseDistances(const Matrix &points, Metric metric)
{
    const std::size_t n = points.rows();
    const std::size_t d = points.cols();
    const auto row = [&points](std::size_t r) { return points.rowData(r); };
    switch (metric) {
      case Metric::Euclidean:
        return fillPairwise(n, [&](std::size_t i, std::size_t j) {
            return std::sqrt(squaredEuclideanKernel(row(i), row(j), d));
        });
      case Metric::SquaredEuclidean:
        return fillPairwise(n, [&](std::size_t i, std::size_t j) {
            return squaredEuclideanKernel(row(i), row(j), d);
        });
      case Metric::Manhattan:
        return fillPairwise(n, [&](std::size_t i, std::size_t j) {
            return manhattanKernel(row(i), row(j), d);
        });
      case Metric::Chebyshev:
        return fillPairwise(n, [&](std::size_t i, std::size_t j) {
            return chebyshevKernel(row(i), row(j), d);
        });
      case Metric::Cosine: {
        std::vector<double> norms(n);
        for (std::size_t i = 0; i < n; ++i)
            norms[i] = std::sqrt(dotKernel(row(i), row(i), d));
        return fillPairwise(n, [&](std::size_t i, std::size_t j) {
            return cosineFromParts(dotKernel(row(i), row(j), d), norms[i],
                                   norms[j]);
        });
      }
    }
    throw InternalError("unhandled metric");
}

} // namespace linalg
} // namespace hiermeans
