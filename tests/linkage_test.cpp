/**
 * @file
 * Tests for the Lance-Williams linkage coefficients.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/linkage.h"
#include "src/util/error.h"

namespace {

using namespace hiermeans::cluster;
using hiermeans::InvalidArgument;

TEST(LinkageTest, CompleteEqualsMaxOfDistances)
{
    // Complete linkage via LW must reduce to max(d_ki, d_kj).
    const LanceWilliams lw = lanceWilliams(Linkage::Complete, 3, 2, 4);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 5.0, 9.0, 2.0), 9.0);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 9.0, 5.0, 2.0), 9.0);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 4.0, 4.0, 1.0), 4.0);
}

TEST(LinkageTest, SingleEqualsMinOfDistances)
{
    const LanceWilliams lw = lanceWilliams(Linkage::Single, 3, 2, 4);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 5.0, 9.0, 2.0), 5.0);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 9.0, 5.0, 2.0), 5.0);
}

TEST(LinkageTest, AverageWeightsBySize)
{
    // UPGMA: (n_i d_ki + n_j d_kj) / (n_i + n_j).
    const LanceWilliams lw = lanceWilliams(Linkage::Average, 3, 1, 4);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 4.0, 8.0, 1.0),
                     (3.0 * 4.0 + 1.0 * 8.0) / 4.0);
}

TEST(LinkageTest, WeightedIgnoresSizes)
{
    const LanceWilliams lw = lanceWilliams(Linkage::Weighted, 30, 1, 4);
    EXPECT_DOUBLE_EQ(updateDistance(lw, 4.0, 8.0, 1.0), 6.0);
}

TEST(LinkageTest, WardCoefficients)
{
    const LanceWilliams lw = lanceWilliams(Linkage::Ward, 2, 3, 5);
    EXPECT_DOUBLE_EQ(lw.alphaI, 7.0 / 10.0);
    EXPECT_DOUBLE_EQ(lw.alphaJ, 8.0 / 10.0);
    EXPECT_DOUBLE_EQ(lw.beta, -5.0 / 10.0);
    EXPECT_DOUBLE_EQ(lw.gamma, 0.0);
}

TEST(LinkageTest, MergedDistanceIsExactMaxMinForCompleteSingle)
{
    // Exact max / min for complete / single, even where the
    // Lance-Williams form rounds: 0.5a + 0.5b + 0.5|a-b| with a, b an
    // ulp apart is not always bit-equal to max(a, b).
    const double a = std::sqrt(2.0);
    const double b = std::nextafter(a, 10.0);
    EXPECT_EQ(mergedDistance(Linkage::Complete, 3, 2, 4, a, b, 0.5), b);
    EXPECT_EQ(mergedDistance(Linkage::Complete, 3, 2, 4, b, a, 0.5), b);
    EXPECT_EQ(mergedDistance(Linkage::Single, 3, 2, 4, a, b, 0.5), a);
    EXPECT_EQ(mergedDistance(Linkage::Single, 3, 2, 4, b, a, 0.5), a);
}

TEST(LinkageTest, MergedDistanceUsesLanceWilliamsOtherwise)
{
    for (Linkage l : {Linkage::Average, Linkage::Weighted, Linkage::Ward})
        EXPECT_EQ(mergedDistance(l, 3, 1, 4, 4.0, 8.0, 1.0),
                  updateDistance(lanceWilliams(l, 3, 1, 4), 4.0, 8.0, 1.0))
            << linkageName(l);
}

TEST(LinkageTest, EmptyClusterThrows)
{
    EXPECT_THROW(lanceWilliams(Linkage::Complete, 0, 2, 1),
                 InvalidArgument);
}

TEST(LinkageTest, NamesRoundTrip)
{
    for (Linkage l : {Linkage::Single, Linkage::Complete,
                      Linkage::Average, Linkage::Weighted,
                      Linkage::Ward}) {
        EXPECT_EQ(parseLinkage(linkageName(l)), l);
        EXPECT_TRUE(isMonotone(l));
    }
    EXPECT_EQ(parseLinkage("furthest"), Linkage::Complete);
    EXPECT_EQ(parseLinkage("UPGMA"), Linkage::Average);
    EXPECT_THROW(parseLinkage("centroid"), InvalidArgument);
}

} // namespace
