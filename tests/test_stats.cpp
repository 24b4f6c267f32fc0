/** @file Unit tests for the trial protocol. */

#include <gtest/gtest.h>

#include "util/stats.hpp"

using namespace hermes::util;

TEST(TrialSet, DiscardsWarmupTrials)
{
    // The paper: 20 trials, drop the first 2, average the rest.
    TrialSet t(2);
    t.add(100.0);  // warmup
    t.add(90.0);   // warmup
    for (int i = 0; i < 4; ++i)
        t.add(10.0 + i);  // 10, 11, 12, 13
    EXPECT_EQ(t.count(), 6u);
    EXPECT_EQ(t.keptCount(), 4u);
    EXPECT_DOUBLE_EQ(t.mean(), 11.5);
}

TEST(TrialSet, AllWarmupMeansZero)
{
    TrialSet t(2);
    t.add(5.0);
    EXPECT_EQ(t.keptCount(), 0u);
    EXPECT_EQ(t.mean(), 0.0);
}
