/**
 * @file
 * Tests for distance metrics.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/linalg/distance.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace hiermeans::linalg;
using hiermeans::InvalidArgument;

TEST(DistanceTest, EuclideanHandComputed)
{
    EXPECT_DOUBLE_EQ(euclidean({0.0, 0.0}, {3.0, 4.0}), 5.0);
    EXPECT_DOUBLE_EQ(squaredEuclidean({0.0, 0.0}, {3.0, 4.0}), 25.0);
    EXPECT_DOUBLE_EQ(euclidean({1.0}, {1.0}), 0.0);
}

TEST(DistanceTest, ManhattanAndChebyshev)
{
    EXPECT_DOUBLE_EQ(manhattan({1.0, -1.0}, {4.0, 3.0}), 7.0);
    EXPECT_DOUBLE_EQ(chebyshev({1.0, -1.0}, {4.0, 3.0}), 4.0);
}

TEST(DistanceTest, CosineCases)
{
    EXPECT_NEAR(cosine({1.0, 0.0}, {0.0, 1.0}), 1.0, 1e-12);
    EXPECT_NEAR(cosine({1.0, 1.0}, {2.0, 2.0}), 0.0, 1e-12);
    EXPECT_NEAR(cosine({1.0, 0.0}, {-1.0, 0.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(cosine({0.0, 0.0}, {0.0, 0.0}), 0.0);
    EXPECT_DOUBLE_EQ(cosine({0.0, 0.0}, {1.0, 0.0}), 1.0);
}

TEST(DistanceTest, SizeMismatchThrows)
{
    EXPECT_THROW(euclidean({1.0}, {1.0, 2.0}), InvalidArgument);
    EXPECT_THROW(manhattan({1.0}, {1.0, 2.0}), InvalidArgument);
}

TEST(DistanceTest, DispatchAgreesWithDirect)
{
    const Vector a = {1.0, 2.0, 3.0};
    const Vector b = {-1.0, 0.5, 2.0};
    EXPECT_DOUBLE_EQ(distance(Metric::Euclidean, a, b), euclidean(a, b));
    EXPECT_DOUBLE_EQ(distance(Metric::Manhattan, a, b), manhattan(a, b));
    EXPECT_DOUBLE_EQ(distance(Metric::Chebyshev, a, b), chebyshev(a, b));
    EXPECT_DOUBLE_EQ(distance(Metric::Cosine, a, b), cosine(a, b));
    EXPECT_DOUBLE_EQ(distance(Metric::SquaredEuclidean, a, b),
                     squaredEuclidean(a, b));
}

TEST(DistanceTest, MetricNamesRoundTrip)
{
    for (Metric m : {Metric::Euclidean, Metric::SquaredEuclidean,
                     Metric::Manhattan, Metric::Chebyshev,
                     Metric::Cosine}) {
        EXPECT_EQ(parseMetric(metricName(m)), m);
    }
    EXPECT_EQ(parseMetric("L2"), Metric::Euclidean);
    EXPECT_THROW(parseMetric("hamming"), InvalidArgument);
}

TEST(DistanceTest, PairwiseMatrixProperties)
{
    const Matrix points =
        Matrix::fromRows({{0.0, 0.0}, {3.0, 4.0}, {6.0, 8.0}});
    const Matrix d = pairwiseDistances(points);
    EXPECT_EQ(d.rows(), 3u);
    EXPECT_EQ(d.cols(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 5.0);
    EXPECT_DOUBLE_EQ(d(1, 0), 5.0);
    EXPECT_DOUBLE_EQ(d(0, 2), 10.0);
}

TEST(DistanceTest, PairwiseEqualsPointDistanceBitForBit)
{
    hiermeans::rng::Engine engine(7);
    Matrix points(40, 7);
    for (std::size_t r = 1; r < points.rows(); ++r) // row 0 stays zero
        for (std::size_t c = 0; c < points.cols(); ++c)
            points(r, c) = engine.uniform(-3.0, 3.0);
    for (Metric m : {Metric::Euclidean, Metric::SquaredEuclidean,
                     Metric::Manhattan, Metric::Chebyshev,
                     Metric::Cosine}) {
        const Matrix d = pairwiseDistances(points, m);
        for (std::size_t i = 0; i < points.rows(); ++i) {
            EXPECT_EQ(d(i, i), 0.0);
            for (std::size_t j = i + 1; j < points.rows(); ++j) {
                const double expected =
                    distance(m, points.row(i), points.row(j));
                EXPECT_EQ(d(i, j), expected) << metricName(m);
                EXPECT_EQ(d(j, i), expected) << metricName(m);
            }
        }
    }
}

TEST(DistanceTest, TriangleInequalityForMetricDistances)
{
    const Vector a = {1.0, 2.0}, b = {4.0, -1.0}, c = {-2.0, 0.5};
    for (Metric m : {Metric::Euclidean, Metric::Manhattan,
                     Metric::Chebyshev}) {
        EXPECT_LE(distance(m, a, c),
                  distance(m, a, b) + distance(m, b, c) + 1e-12);
    }
}

} // namespace
