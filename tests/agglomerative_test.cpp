/**
 * @file
 * Tests for agglomerative hierarchical clustering (Section III-B).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/cluster/agglomerative.h"
#include "src/som/topology.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace hiermeans::cluster;
using hiermeans::InvalidArgument;
using hiermeans::linalg::Matrix;
using hiermeans::linalg::Metric;
using hiermeans::linalg::Vector;
using hiermeans::scoring::Partition;

/**
 * Reference agglomeration: rescan every live pair before each merge and
 * take the smallest (height, min node id, max node id), with the same
 * slot convention and distance update as the library. O(n^3).
 */
std::vector<Merge>
oracleMerges(const Matrix &distances, Linkage linkage)
{
    const std::size_t n = distances.rows();
    Matrix work = distances;
    std::vector<std::size_t> node_id(n);
    std::vector<std::size_t> size(n, 1);
    std::vector<bool> alive(n, true);
    for (std::size_t i = 0; i < n; ++i)
        node_id[i] = i;
    std::vector<Merge> merges;
    for (std::size_t step = 0; step + 1 < n; ++step) {
        std::tuple<double, std::size_t, std::size_t> best;
        std::size_t bi = n, bj = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (!alive[i])
                continue;
            for (std::size_t j = i + 1; j < n; ++j) {
                if (!alive[j])
                    continue;
                const auto [lo, hi] = std::minmax(node_id[i], node_id[j]);
                const auto key = std::make_tuple(work(i, j), lo, hi);
                if (bi == n || key < best) {
                    best = key;
                    bi = i;
                    bj = j;
                }
            }
        }
        merges.push_back(Merge{std::get<1>(best), std::get<2>(best),
                               std::get<0>(best), size[bi] + size[bj]});
        for (std::size_t k = 0; k < n; ++k) {
            if (!alive[k] || k == bi || k == bj)
                continue;
            const double d =
                mergedDistance(linkage, size[bi], size[bj], size[k],
                               work(k, bi), work(k, bj), work(bi, bj));
            work(k, bi) = d;
            work(bi, k) = d;
        }
        size[bi] += size[bj];
        alive[bj] = false;
        node_id[bi] = n + step;
    }
    return merges;
}

/** Bit-for-bit comparison of two merge lists (heights via memcmp). */
::testing::AssertionResult
sameMerges(const std::vector<Merge> &expected,
           const std::vector<Merge> &actual)
{
    if (expected.size() != actual.size())
        return ::testing::AssertionFailure()
               << expected.size() << " vs " << actual.size() << " merges";
    for (std::size_t s = 0; s < expected.size(); ++s) {
        const Merge &e = expected[s];
        const Merge &a = actual[s];
        if (e.left != a.left || e.right != a.right || e.size != a.size ||
            std::memcmp(&e.height, &a.height, sizeof(double)) != 0)
            return ::testing::AssertionFailure()
                   << "merge " << s << ": expected (" << e.left << ", "
                   << e.right << ", " << e.height << ", " << e.size
                   << "), got (" << a.left << ", " << a.right << ", "
                   << a.height << ", " << a.size << ")";
    }
    return ::testing::AssertionSuccess();
}

/**
 * Seeded input: n in [2, 60] points in 1-3 dimensions, either uniform
 * reals or small integer grid coordinates (many exactly tied distances).
 */
Matrix
randomInput(std::uint64_t seed, bool grid)
{
    hiermeans::rng::Engine engine(seed);
    const std::size_t n = 2 + engine.below(59);
    const std::size_t dims = 1 + engine.below(3);
    const std::size_t side = 2 + engine.below(6);
    Matrix points(n, dims);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < dims; ++c)
            points(r, c) = grid ? static_cast<double>(engine.below(side))
                                : engine.uniform(-5.0, 5.0);
    return points;
}

/** n points on a 13 x 14 integer grid, the size of a fleet's SOM map. */
Matrix
fleetGrid(std::size_t n, std::uint64_t seed)
{
    hiermeans::rng::Engine engine(seed);
    Matrix points(n, 2);
    for (std::size_t r = 0; r < n; ++r) {
        points(r, 0) = static_cast<double>(engine.below(13));
        points(r, 1) = static_cast<double>(engine.below(14));
    }
    return points;
}

TEST(AgglomerativeTest, SinglePointYieldsEmptyMergeList)
{
    const Dendrogram d = agglomerate(Matrix::fromRows({{1.0, 2.0}}));
    EXPECT_EQ(d.leafCount(), 1u);
    EXPECT_TRUE(d.merges().empty());
}

TEST(AgglomerativeTest, HandCheckedThreePoints)
{
    // Points on a line at 0, 1, 10: first merge {0,1} at distance 1,
    // then complete linkage joins the pair with 10 at distance 10.
    const Matrix points = Matrix::fromRows({{0.0}, {1.0}, {10.0}});
    const Dendrogram d = agglomerate(points, Linkage::Complete);
    ASSERT_EQ(d.merges().size(), 2u);
    EXPECT_DOUBLE_EQ(d.merges()[0].height, 1.0);
    EXPECT_EQ(d.merges()[0].left, 0u);
    EXPECT_EQ(d.merges()[0].right, 1u);
    EXPECT_DOUBLE_EQ(d.merges()[1].height, 10.0);
    EXPECT_EQ(d.merges()[1].size, 3u);
}

TEST(AgglomerativeTest, SingleVsCompleteDifferOnChains)
{
    // A chain 0 - 2 - 4 - 6: single linkage merges the whole chain at
    // distance 2; complete linkage heights grow with cluster diameter.
    const Matrix points =
        Matrix::fromRows({{0.0}, {2.0}, {4.0}, {6.0}});
    const Dendrogram single = agglomerate(points, Linkage::Single);
    const Dendrogram complete = agglomerate(points, Linkage::Complete);
    EXPECT_DOUBLE_EQ(single.merges().back().height, 2.0);
    EXPECT_DOUBLE_EQ(complete.merges().back().height, 6.0);
}

TEST(AgglomerativeTest, CompleteMatchesBruteForceDefinition)
{
    // d(A, B) = max pairwise distance: verify the final merge height
    // equals the data diameter under complete linkage.
    hiermeans::rng::Engine engine(21);
    std::vector<Vector> rows;
    for (int i = 0; i < 12; ++i)
        rows.push_back({engine.uniform(0.0, 5.0),
                        engine.uniform(0.0, 5.0)});
    const Matrix points = Matrix::fromRows(rows);
    const Dendrogram d = agglomerate(points, Linkage::Complete);

    const Matrix dist = hiermeans::linalg::pairwiseDistances(points);
    double diameter = 0.0;
    for (std::size_t i = 0; i < dist.rows(); ++i)
        for (std::size_t j = i + 1; j < dist.cols(); ++j)
            diameter = std::max(diameter, dist(i, j));
    EXPECT_EQ(d.merges().back().height, diameter);
}

TEST(AgglomerativeTest, CompleteHeightsAreFurthestPairDistances)
{
    // Every complete-linkage height is exactly the largest point
    // distance between the two merged clusters.
    const Matrix points = fleetGrid(80, 5);
    const Matrix dist = hiermeans::linalg::pairwiseDistances(points);
    const Dendrogram d = agglomerate(points, Linkage::Complete);
    for (const Merge &m : d.merges()) {
        double furthest = 0.0;
        for (std::size_t a : d.leavesUnder(m.left))
            for (std::size_t b : d.leavesUnder(m.right))
                furthest = std::max(furthest, dist(a, b));
        EXPECT_EQ(m.height, furthest);
    }
}

TEST(AgglomerativeTest, FromDistancesValidation)
{
    Matrix bad(2, 3);
    EXPECT_THROW(agglomerateFromDistances(bad), InvalidArgument);
    Matrix diag(2, 2, 0.0);
    diag(0, 0) = 1.0;
    EXPECT_THROW(agglomerateFromDistances(diag), InvalidArgument);
    Matrix asym(2, 2, 0.0);
    asym(0, 1) = 1.0;
    asym(1, 0) = 2.0;
    EXPECT_THROW(agglomerateFromDistances(asym), InvalidArgument);
    Matrix negative(2, 2, 0.0);
    negative(0, 1) = -1.0;
    negative(1, 0) = -1.0;
    EXPECT_THROW(agglomerateFromDistances(negative), InvalidArgument);
}

TEST(AgglomerativeTest, WardRequiresEuclidean)
{
    const Matrix points = Matrix::fromRows({{0.0}, {1.0}});
    EXPECT_THROW(agglomerate(points, Linkage::Ward,
                             hiermeans::linalg::Metric::Manhattan),
                 InvalidArgument);
    EXPECT_NO_THROW(agglomerate(points, Linkage::Ward));
}

TEST(AgglomerativeTest, DeterministicUnderTies)
{
    // Four corners of a square: all four sides tie at 1. Ties go to the
    // smallest (min id, max id): {0,1} first, then {2,3}, then the two
    // pairs join at the diagonal.
    const Matrix points = Matrix::fromRows(
        {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}});
    const std::vector<Merge> expected = {
        {0, 1, 1.0, 2}, {2, 3, 1.0, 2}, {4, 5, std::sqrt(2.0), 4}};
    EXPECT_TRUE(sameMerges(expected, agglomerate(points).merges()));
}

class NnCacheDifferential : public ::testing::TestWithParam<Linkage>
{
};

TEST_P(NnCacheDifferential, MatchesFullRescanOracle)
{
    // 1000 seeded inputs (half uniform reals, half tie-heavy integer
    // grids), merges compared bit for bit with the O(n^3) oracle.
    const Linkage linkage = GetParam();
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
        const Matrix points = randomInput(seed, seed % 2 == 1);
        const Matrix dist = hiermeans::linalg::pairwiseDistances(points);
        EXPECT_TRUE(sameMerges(oracleMerges(dist, linkage),
                               agglomerateFromDistances(dist, linkage)
                                   .merges()))
            << linkageName(linkage) << " seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLinkages, NnCacheDifferential,
    ::testing::Values(Linkage::Single, Linkage::Complete, Linkage::Average,
                      Linkage::Weighted, Linkage::Ward),
    [](const ::testing::TestParamInfo<Linkage> &info) {
        return std::string(linkageName(info.param));
    });

TEST(AgglomerativeTest, FleetSizeGridMatchesOracle)
{
    // 1000 points on 182 grid cells: mostly exact ties, at the size of
    // generated fleets.
    for (std::uint64_t seed : {1u, 2u}) {
        const Matrix dist =
            hiermeans::linalg::pairwiseDistances(fleetGrid(1000, seed));
        EXPECT_TRUE(sameMerges(oracleMerges(dist, Linkage::Complete),
                               agglomerateFromDistances(dist).merges()))
            << "seed " << seed;
    }
}

/** Merges of clustering the rows of @p points one by one. */
std::vector<Merge>
oneByOne(const Matrix &points, Linkage linkage, Metric metric)
{
    return agglomerateFromDistances(
               hiermeans::linalg::pairwiseDistances(points, metric), linkage)
        .merges();
}

/**
 * Seeded SOM grid positions: n workloads (mostly up to 200, one seed in
 * ten up to 1000) placed on the cells of a random rectangular or
 * hexagonal map of at most 14 x 15 cells, so most positions repeat.
 */
Matrix
mapPositions(std::uint64_t seed)
{
    hiermeans::rng::Engine engine(seed);
    const std::size_t n = 1 + engine.below(seed % 10 == 0 ? 1000 : 200);
    const hiermeans::som::GridTopology topology(
        2 + engine.below(13), 2 + engine.below(14),
        seed % 2 == 0 ? hiermeans::som::GridKind::Rectangular
                      : hiermeans::som::GridKind::Hexagonal);
    Matrix points(n, 2);
    for (std::size_t r = 0; r < n; ++r) {
        const auto p = topology.location(engine.below(topology.unitCount()));
        points(r, 0) = p.x;
        points(r, 1) = p.y;
    }
    return points;
}

class GroupedRowsDifferential
    : public ::testing::TestWithParam<std::tuple<Linkage, Metric>>
{
};

TEST_P(GroupedRowsDifferential, MatchesOneByOne)
{
    // Clustering identical rows as one point gives the merge list of
    // clustering every row, bit for bit.
    const auto [linkage, metric] = GetParam();
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const Matrix points = mapPositions(seed);
        EXPECT_TRUE(sameMerges(oneByOne(points, linkage, metric),
                               agglomerate(points, linkage, metric)
                                   .merges()))
            << "seed " << seed << ", n " << points.rows();
    }
}

INSTANTIATE_TEST_SUITE_P(
    ExactMetrics, GroupedRowsDifferential,
    ::testing::Combine(::testing::Values(Linkage::Complete, Linkage::Single),
                       ::testing::Values(Metric::Euclidean,
                                         Metric::SquaredEuclidean,
                                         Metric::Manhattan,
                                         Metric::Chebyshev)),
    [](const auto &info) {
        return std::string(linkageName(std::get<0>(info.param))) + "_" +
               hiermeans::linalg::metricName(std::get<1>(info.param));
    });

TEST(AgglomerativeTest, AllRowsEqualMergeInFifoOrder)
{
    // One group: each merge joins the two lowest live ids at height 0.
    const Matrix five(5, 2, 3.5);
    const std::vector<Merge> expected = {
        {0, 1, 0.0, 2}, {2, 3, 0.0, 2}, {4, 5, 0.0, 3}, {6, 7, 0.0, 5}};
    EXPECT_TRUE(sameMerges(expected, agglomerate(five).merges()));

    const Matrix many(1000, 2, -1.0);
    EXPECT_TRUE(sameMerges(oneByOne(many, Linkage::Complete,
                                    Metric::Euclidean),
                           agglomerate(many).merges()));
}

TEST(AgglomerativeTest, GroupsInterleaveByLowestFrontId)
{
    // Rows 0, 2, 4 share a cell and rows 1, 3 another: the height-0
    // merges alternate between the groups by their lowest live id.
    const Matrix points =
        Matrix::fromRows({{0.0}, {7.0}, {0.0}, {7.0}, {0.0}, {3.0}});
    const std::vector<Merge> expected = {{0, 2, 0.0, 2},
                                         {1, 3, 0.0, 2},
                                         {4, 6, 0.0, 3},
                                         {5, 8, 3.0, 4},
                                         {7, 9, 7.0, 6}};
    const Dendrogram d = agglomerate(points);
    EXPECT_TRUE(sameMerges(expected, d.merges()));
    EXPECT_TRUE(sameMerges(
        oneByOne(points, Linkage::Complete, Metric::Euclidean), d.merges()));
}

TEST(AgglomerativeTest, NoDuplicatesMatchesOneByOne)
{
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        const Matrix points = randomInput(seed, false);
        for (Linkage linkage : {Linkage::Complete, Linkage::Single})
            EXPECT_TRUE(sameMerges(
                oneByOne(points, linkage, Metric::Euclidean),
                agglomerate(points, linkage).merges()))
                << linkageName(linkage) << " seed " << seed;
    }
}

TEST(AgglomerativeTest, DistinctRowsAtDistanceZeroAreNotGrouped)
{
    // 1e-200 apart, the squared difference underflows to 0: the rows
    // are distinct but at distance 0, so grouping them by value would
    // change the tie order. The one-by-one merge list must come out.
    const Matrix points = Matrix::fromRows(
        {{0.0}, {1e-200}, {0.0}, {1e-200}, {5.0}, {1e-200}});
    for (Metric metric : {Metric::SquaredEuclidean, Metric::Euclidean}) {
        for (Linkage linkage : {Linkage::Complete, Linkage::Single}) {
            const std::vector<Merge> expected =
                oneByOne(points, linkage, metric);
            ASSERT_EQ(expected[0].left, 0u);
            ASSERT_EQ(expected[0].right, 1u);
            EXPECT_TRUE(sameMerges(expected,
                                   agglomerate(points, linkage, metric)
                                       .merges()))
                << hiermeans::linalg::metricName(metric) << " "
                << linkageName(linkage);
        }
    }
}

TEST(AgglomerativeTest, InfiniteDistanceBetweenRowsFailsAsOneByOne)
{
    // Finite rows whose distance overflows take the one-by-one path,
    // which rejects the infinite distance.
    const Matrix points = Matrix::fromRows({{1e300}, {-1e300}, {1e300}});
    EXPECT_THROW(oneByOne(points, Linkage::Complete, Metric::Euclidean),
                 InvalidArgument);
    EXPECT_THROW(agglomerate(points), InvalidArgument);
}

TEST(AgglomerativeTest, OtherLinkagesAndCosineClusterRowByRow)
{
    // Average, weighted and Ward merge by the Lance-Williams recurrence
    // and cosine puts identical rows at a rounded distance, so these
    // cluster every row; duplicate-heavy inputs must match that path.
    const std::vector<std::tuple<Linkage, Metric>> cases = {
        {Linkage::Average, Metric::Euclidean},
        {Linkage::Weighted, Metric::Manhattan},
        {Linkage::Ward, Metric::Euclidean},
        {Linkage::Complete, Metric::Cosine},
        {Linkage::Single, Metric::Cosine}};
    for (std::uint64_t seed = 1; seed < 40; seed += 2) {
        Matrix points = mapPositions(seed);
        for (std::size_t r = 0; r < points.rows(); ++r)
            points(r, 0) += 1.0; // keep cosine away from the origin.
        for (const auto &[linkage, metric] : cases)
            EXPECT_TRUE(sameMerges(oneByOne(points, linkage, metric),
                                   agglomerate(points, linkage, metric)
                                       .merges()))
                << linkageName(linkage) << " "
                << hiermeans::linalg::metricName(metric) << " seed "
                << seed;
    }
}

TEST(AgglomerativeTest, NonFiniteCoordinatesAreRejected)
{
    const double bad[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
    for (double value : bad) {
        for (std::size_t n : {1u, 2u, 5u}) {
            Matrix points(n, 2, 1.0);
            points(n - 1, 1) = value;
            for (Linkage linkage :
                 {Linkage::Single, Linkage::Complete, Linkage::Average,
                  Linkage::Weighted})
                for (Metric metric :
                     {Metric::Euclidean, Metric::SquaredEuclidean,
                      Metric::Manhattan, Metric::Chebyshev, Metric::Cosine})
                    EXPECT_THROW(agglomerate(points, linkage, metric),
                                 InvalidArgument)
                        << value << " n " << n << " "
                        << linkageName(linkage) << " "
                        << hiermeans::linalg::metricName(metric);
            EXPECT_THROW(agglomerate(points, Linkage::Ward), InvalidArgument);
        }
    }
}

class LinkageMonotonicityProperty
    : public ::testing::TestWithParam<std::tuple<Linkage, std::uint64_t>>
{
};

TEST_P(LinkageMonotonicityProperty, HeightsNeverDecrease)
{
    const auto [linkage, seed] = GetParam();
    hiermeans::rng::Engine engine(seed);
    const std::size_t n = 4 + engine.below(16);
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back({engine.uniform(-3.0, 3.0),
                        engine.uniform(-3.0, 3.0),
                        engine.uniform(-3.0, 3.0)});
    const Dendrogram d = agglomerate(Matrix::fromRows(rows), linkage);
    EXPECT_TRUE(d.heightsMonotone()) << linkageName(linkage);
}

TEST_P(LinkageMonotonicityProperty, EveryCutCountReachable)
{
    const auto [linkage, seed] = GetParam();
    hiermeans::rng::Engine engine(seed ^ 0xF00D);
    const std::size_t n = 3 + engine.below(10);
    std::vector<Vector> rows;
    for (std::size_t i = 0; i < n; ++i)
        rows.push_back({engine.uniform(0.0, 9.0)});
    const Dendrogram d = agglomerate(Matrix::fromRows(rows), linkage);
    for (std::size_t k = 1; k <= n; ++k) {
        const Partition p = d.cutAtCount(k);
        EXPECT_EQ(p.clusterCount(), k);
        EXPECT_EQ(p.size(), n);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLinkages, LinkageMonotonicityProperty,
    ::testing::Combine(::testing::Values(Linkage::Single,
                                         Linkage::Complete,
                                         Linkage::Average,
                                         Linkage::Weighted, Linkage::Ward),
                       ::testing::Values(1u, 17u, 4242u)));

} // namespace
