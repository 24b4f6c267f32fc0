/** @file Unit tests for CSV emission. */

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "util/csv.hpp"

using namespace hermes::util;

TEST(Csv, PlainRows)
{
    CsvWriter csv;
    csv.row({"a", "b", "c"});
    csv.row({"1", "2", "3"});
    EXPECT_EQ(csv.str(), "a,b,c\n1,2,3\n");
}

TEST(Csv, EscapesSeparatorsAndQuotes)
{
    CsvWriter csv;
    csv.row({"x,y", "he said \"hi\"", "line\nbreak"});
    EXPECT_EQ(csv.str(),
              "\"x,y\",\"he said \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(Csv, WritesFile)
{
    const std::string path = testing::TempDir() + "hermes_csv_test.csv";
    {
        CsvWriter csv(path);
        csv.row({"h1", "h2"});
        csv.row({"r", "42"});
    }
    std::ifstream in(path);
    std::string l1, l2;
    std::getline(in, l1);
    std::getline(in, l2);
    EXPECT_EQ(l1, "h1,h2");
    EXPECT_EQ(l2, "r,42");
    std::remove(path.c_str());
}
