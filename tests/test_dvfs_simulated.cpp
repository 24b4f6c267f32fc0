/** @file Unit tests for the simulated DVFS backend. */

#include <gtest/gtest.h>

#include "dvfs/simulated.hpp"

using namespace hermes;
using dvfs::SimulatedDvfs;
using platform::FrequencyLadder;

namespace {

const FrequencyLadder kLadder({2400, 1900, 1600});

} // namespace

TEST(SimulatedDvfs, StartsAtFastest)
{
    SimulatedDvfs b(4, kLadder);
    EXPECT_EQ(b.numDomains(), 4u);
    for (unsigned d = 0; d < 4; ++d)
        EXPECT_EQ(b.domainFreq(d), 2400u);
    EXPECT_EQ(b.transitionCount(), 0u);
}

TEST(SimulatedDvfs, SetAndReadBack)
{
    SimulatedDvfs b(4, kLadder);
    b.setDomainFreq(2, 1600);
    EXPECT_EQ(b.domainFreq(2), 1600u);
    EXPECT_EQ(b.domainFreq(1), 2400u);
}

TEST(SimulatedDvfs, RedundantRequestsAreNotRecorded)
{
    SimulatedDvfs b(4, kLadder);
    b.setDomainFreq(0, 2400); // already there
    EXPECT_EQ(b.transitionCount(), 0u);
    b.setDomainFreq(0, 1900);
    b.setDomainFreq(0, 1900); // redundant
    EXPECT_EQ(b.transitionCount(), 1u);
    b.setDomainFreq(3, 1600);
    EXPECT_EQ(b.transitionCount(), 2u);
}

TEST(SimulatedDvfsDeath, RejectsOffLadderFrequency)
{
    SimulatedDvfs b(4, kLadder);
    EXPECT_DEATH(b.setDomainFreq(0, 2000), "not a ladder rung");
}
