/**
 * @file
 * Tests for the dendrogram structure and its cuts.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "src/cluster/agglomerative.h"
#include "src/cluster/dendrogram.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace {

using namespace hiermeans::cluster;
using hiermeans::InvalidArgument;
using hiermeans::linalg::Matrix;
using hiermeans::scoring::Partition;

/**
 * Fixed dendrogram over 4 leaves:
 *   merge 0: leaves 0, 1 at h=1 -> node 4
 *   merge 1: leaves 2, 3 at h=2 -> node 5
 *   merge 2: nodes 4, 5 at h=5 -> node 6
 */
Dendrogram
fixedDendrogram()
{
    std::vector<Merge> merges = {
        {0, 1, 1.0, 2}, {2, 3, 2.0, 2}, {4, 5, 5.0, 4}};
    return Dendrogram(4, std::move(merges));
}

TEST(DendrogramTest, ConstructionValidation)
{
    EXPECT_THROW(Dendrogram(0, {}), InvalidArgument);
    // Wrong merge count.
    EXPECT_THROW(Dendrogram(3, {{0, 1, 1.0, 2}}), InvalidArgument);
    // Self-merge.
    EXPECT_THROW(Dendrogram(2, {{0, 0, 1.0, 2}}), InvalidArgument);
    // Forward reference to a not-yet-created node.
    EXPECT_THROW(Dendrogram(3, {{0, 4, 1.0, 2}, {2, 3, 2.0, 3}}),
                 InvalidArgument);
    // Node consumed twice.
    EXPECT_THROW(Dendrogram(4, {{0, 1, 1.0, 2},
                                {0, 2, 2.0, 2},
                                {3, 5, 3.0, 4}}),
                 InvalidArgument);
    // Negative height.
    EXPECT_THROW(Dendrogram(2, {{0, 1, -1.0, 2}}), InvalidArgument);
    // A single leaf with no merges is valid.
    EXPECT_NO_THROW(Dendrogram(1, {}));
}

TEST(DendrogramTest, LeavesUnder)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.leavesUnder(0), (std::vector<std::size_t>{0}));
    EXPECT_EQ(d.leavesUnder(4), (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(d.leavesUnder(6), (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_THROW(d.leavesUnder(7), InvalidArgument);
}

TEST(DendrogramTest, CutAtCount)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.cutAtCount(1), Partition::single(4));
    EXPECT_EQ(d.cutAtCount(2),
              Partition::fromGroups({{0, 1}, {2, 3}}));
    EXPECT_EQ(d.cutAtCount(3),
              Partition::fromGroups({{0, 1}, {2}, {3}}));
    EXPECT_EQ(d.cutAtCount(4), Partition::discrete(4));
    EXPECT_THROW(d.cutAtCount(0), InvalidArgument);
    EXPECT_THROW(d.cutAtCount(5), InvalidArgument);
}

TEST(DendrogramTest, CutAtDistance)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.cutAtDistance(0.5), Partition::discrete(4));
    EXPECT_EQ(d.cutAtDistance(1.0),
              Partition::fromGroups({{0, 1}, {2}, {3}}));
    EXPECT_EQ(d.cutAtDistance(2.5),
              Partition::fromGroups({{0, 1}, {2, 3}}));
    EXPECT_EQ(d.cutAtDistance(5.0), Partition::single(4));
    EXPECT_EQ(d.clusterCountAtDistance(1.5), 3u);
}

TEST(DendrogramTest, HeightsAndMonotonicity)
{
    const Dendrogram d = fixedDendrogram();
    EXPECT_EQ(d.heights(), (std::vector<double>{1.0, 2.0, 5.0}));
    EXPECT_TRUE(d.heightsMonotone());

    std::vector<Merge> inverted = {
        {0, 1, 3.0, 2}, {2, 3, 2.0, 2}, {4, 5, 5.0, 4}};
    const Dendrogram bad(4, std::move(inverted));
    EXPECT_FALSE(bad.heightsMonotone());
}

TEST(DendrogramTest, PartitionSweepRange)
{
    const Dendrogram d = fixedDendrogram();
    const auto sweep = d.partitionSweep(2, 8); // clamped to 4.
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].clusterCount(), 2u);
    EXPECT_EQ(sweep[2].clusterCount(), 4u);
    EXPECT_THROW(d.partitionSweep(5, 8), InvalidArgument);
}

TEST(DendrogramTest, CopheneticDistances)
{
    const Dendrogram d = fixedDendrogram();
    const Matrix c = d.copheneticDistances();
    EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(c(2, 3), 2.0);
    EXPECT_DOUBLE_EQ(c(0, 2), 5.0);
    EXPECT_DOUBLE_EQ(c(1, 3), 5.0);
    EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
    EXPECT_DOUBLE_EQ(c(2, 0), c(0, 2));
}

TEST(DendrogramTest, CutsNestHierarchically)
{
    // Every cluster at k+1 must be contained in a cluster at k.
    const Matrix points = Matrix::fromRows(
        {{0.0}, {0.5}, {3.0}, {3.2}, {9.0}, {9.4}, {20.0}});
    const Dendrogram d = agglomerate(points);
    for (std::size_t k = 1; k < points.rows(); ++k) {
        const Partition coarse = d.cutAtCount(k);
        const Partition fine = d.cutAtCount(k + 1);
        for (const auto &cluster : fine.groups()) {
            const std::size_t target = coarse.label(cluster.front());
            for (std::size_t member : cluster)
                EXPECT_EQ(coarse.label(member), target);
        }
    }
}

/**
 * Reference cut: union-find over the leaves, joining the lowest leaf
 * under each side of every applied merge, found with leavesUnder().
 */
Partition
oracleCut(const Dendrogram &d, std::size_t applied)
{
    std::vector<std::size_t> parent(d.leafCount());
    for (std::size_t i = 0; i < parent.size(); ++i)
        parent[i] = i;
    const auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (std::size_t m = 0; m < applied; ++m) {
        const Merge &merge = d.merges()[m];
        const std::size_t a = find(d.leavesUnder(merge.left).front());
        parent[a] = find(d.leavesUnder(merge.right).front());
    }
    std::vector<std::size_t> labels(parent.size());
    for (std::size_t i = 0; i < labels.size(); ++i)
        labels[i] = find(i);
    return Partition::fromLabels(labels);
}

TEST(DendrogramTest, PartitionSweepMatchesLeavesUnderOracle)
{
    // Seeded 2-D grid inputs from 2 to 1000 points (many ties, so the
    // merge trees are deep and unbalanced).
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        hiermeans::rng::Engine engine(seed);
        const std::size_t n =
            seed == 0 ? 1000 : 2 + engine.below(seed % 3 == 0 ? 999 : 80);
        Matrix points(n, 2);
        for (std::size_t r = 0; r < n; ++r) {
            points(r, 0) = static_cast<double>(engine.below(13));
            points(r, 1) = static_cast<double>(engine.below(14));
        }
        const Dendrogram d = agglomerate(points);
        const std::size_t k_max = std::min<std::size_t>(n, 12);
        const std::vector<Partition> sweep = d.partitionSweep(1, k_max);
        ASSERT_EQ(sweep.size(), k_max);
        for (std::size_t k = 1; k <= k_max; ++k) {
            const Partition expected = oracleCut(d, n - k);
            EXPECT_EQ(sweep[k - 1], expected) << "seed " << seed << " k " << k;
            EXPECT_EQ(d.cutAtCount(k), expected)
                << "seed " << seed << " k " << k;
        }
        for (std::size_t m = 0; m < d.merges().size(); m += 1 + n / 10) {
            const double h = d.merges()[m].height;
            std::size_t applied = 0;
            while (applied < d.merges().size() &&
                   d.merges()[applied].height <= h)
                ++applied;
            EXPECT_EQ(d.cutAtDistance(h), oracleCut(d, applied))
                << "seed " << seed << " height " << h;
        }
    }
}

} // namespace
