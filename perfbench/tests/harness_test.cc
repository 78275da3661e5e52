/**
 * @file
 * Tests of the perfbench harness's own helpers: the percentile rule,
 * span self time, the service mix's seed determinism and error-rate
 * counting.
 */

#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core.hh"
#include "request_mix.hh"

namespace perfbench
{
namespace
{

TEST(PercentileRule, ReportsHighestPercentileWithTenBeyond)
{
    const std::vector<double> tails = {90.0, 99.0, 99.9};
    EXPECT_FALSE(highestReportablePercentile(99, tails).has_value());
    EXPECT_EQ(highestReportablePercentile(100, tails), 90.0);
    EXPECT_EQ(highestReportablePercentile(999, tails), 90.0);
    EXPECT_EQ(highestReportablePercentile(1000, tails), 99.0);
    EXPECT_EQ(highestReportablePercentile(10000, tails), 99.9);
    EXPECT_FALSE(highestReportablePercentile(0, tails).has_value());
}

TEST(PercentileRule, NearestRankValues)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    EXPECT_EQ(percentile(values, 90.0), 90.0);
    EXPECT_EQ(percentile(values, 50.0), 50.0);
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

Span
makeSpan(std::uint64_t id, std::uint64_t parent, double start, double end)
{
    Span span;
    span.id = id;
    span.parent = parent;
    span.start = start;
    span.end = end;
    return span;
}

TEST(SpanSelfTime, OverlappingChildrenCountOnce)
{
    const Span parent = makeSpan(1, 0, 0.0, 10.0);
    // [1,4] and [3,6] overlap; [8,12] sticks out of the parent.
    const std::vector<Span> children = {makeSpan(2, 1, 1.0, 4.0),
                                        makeSpan(3, 1, 3.0, 6.0),
                                        makeSpan(4, 1, 8.0, 12.0)};
    EXPECT_DOUBLE_EQ(selfTime(parent, children), 3.0);
}

TEST(SpanSelfTime, NestedChildWithinChild)
{
    const Span parent = makeSpan(1, 0, 0.0, 10.0);
    const std::vector<Span> children = {makeSpan(2, 1, 2.0, 8.0),
                                        makeSpan(3, 1, 3.0, 5.0)};
    EXPECT_DOUBLE_EQ(selfTime(parent, children), 4.0);
}

TEST(SpanSelfTime, SelfTimesFollowParentLinks)
{
    const std::vector<Span> spans = {
        makeSpan(1, 0, 0.0, 10.0), makeSpan(2, 1, 1.0, 4.0),
        makeSpan(3, 2, 2.0, 3.0), makeSpan(4, 1, 3.0, 6.0)};
    const std::vector<double> self = selfTimes(spans);
    ASSERT_EQ(self.size(), 4u);
    EXPECT_DOUBLE_EQ(self[0], 5.0);  // children cover [1,6]
    EXPECT_DOUBLE_EQ(self[1], 2.0);  // grandchild covers [2,3]
    EXPECT_DOUBLE_EQ(self[2], 1.0);
    EXPECT_DOUBLE_EQ(self[3], 3.0);
}

TEST(SpanRecorder, NestsOnOneThread)
{
    SpanRecorder &recorder = SpanRecorder::global();
    recorder.clear();
    recorder.setEnabled(true);
    {
        ScopedSpan outer("outer", 7);
        ScopedSpan inner("inner", 7);
    }
    recorder.setEnabled(false);
    const std::vector<Span> spans = recorder.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner");
    EXPECT_EQ(spans[1].name, "outer");
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_EQ(spans[0].request, 7u);
    recorder.clear();
}

TEST(RequestMix, ShapesAreSeedDeterministic)
{
    const std::vector<RequestShape> a = drawShapes(42, 30);
    const std::vector<RequestShape> b = drawShapes(42, 30);
    const std::vector<RequestShape> c = drawShapes(43, 30);
    ASSERT_EQ(a.size(), 30u);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].program, b[i].program);
        EXPECT_EQ(a[i].predictor, b[i].predictor);
        EXPECT_EQ(a[i].scheme, b[i].scheme);
        EXPECT_EQ(a[i].sizes, b[i].sizes);
        differs = differs || a[i].program != c[i].program ||
                  a[i].sizes != c[i].sizes ||
                  a[i].predictor != c[i].predictor;
    }
    EXPECT_TRUE(differs);
}

TEST(RequestMix, ThirtyShapesAreBalanced)
{
    for (const std::uint64_t seed : {1u, 2u, 77u}) {
        std::map<std::pair<std::string, std::string>, int> pairs;
        std::map<std::string, int> programs;
        std::map<std::size_t, int> sizes;
        for (const RequestShape &shape : drawShapes(seed, 30)) {
            ++pairs[{shape.predictor, shape.scheme}];
            ++programs[shape.program];
            ASSERT_EQ(shape.sizes.size(), 2u);
            EXPECT_NE(shape.sizes[0], shape.sizes[1]);
            for (const std::size_t size : shape.sizes)
                ++sizes[size];
        }
        EXPECT_EQ(pairs.size(), 15u);
        for (const auto &[pair, count] : pairs)
            EXPECT_EQ(count, 2);
        EXPECT_EQ(programs.size(), 6u);
        for (const auto &[program, count] : programs)
            EXPECT_EQ(count, 5);
        EXPECT_EQ(sizes.size(), 6u);
        for (const auto &[size, count] : sizes)
            EXPECT_EQ(count, 10);
    }
}

TEST(RequestMix, SeedSequenceRepeatsAndNeverReissues)
{
    SeedSequence a(5);
    SeedSequence b(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t value = a.next();
        EXPECT_EQ(value, b.next());
        EXPECT_GT(value, 0u);
        EXPECT_LT(value, 0x8000'0000ULL);
        EXPECT_TRUE(seen.insert(value).second);
    }
}

TEST(RequestMix, BatchOrderIsDeterministicAndBalanced)
{
    const std::vector<MixEntry> a = batchOrder(9, 3, 30, 6);
    const std::vector<MixEntry> b = batchOrder(9, 3, 30, 6);
    ASSERT_EQ(a.size(), 60u);
    std::size_t fresh = 0;
    std::map<std::size_t, int> resubmits;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].fresh, b[i].fresh);
        EXPECT_EQ(a[i].index, b[i].index);
        fresh += a[i].fresh ? 1 : 0;
        if (!a[i].fresh)
            ++resubmits[a[i].index];
    }
    EXPECT_EQ(fresh, 30u);
    ASSERT_EQ(resubmits.size(), 6u);
    for (const auto &[index, count] : resubmits)
        EXPECT_EQ(count, 5);
}

TEST(RequestMix, SweepCarriesShapeAndSeed)
{
    const RequestShape shape = drawShapes(3, 1).front();
    const bpsim::service::SweepSpec spec = makeSweep(shape, 1234);
    EXPECT_EQ(spec.seed, 1234u);
    EXPECT_EQ(spec.program, shape.program);
    EXPECT_EQ(spec.sizes, shape.sizes);
    EXPECT_EQ(spec.evalBranches, mixEvalBranches);
}

TEST(ErrorRate, CountsShedFailedAndMismatchedAgainstAttempted)
{
    OperationTally tally;
    for (int i = 0; i < 6; ++i)
        tally.addOk();
    tally.addShed();
    tally.addError();
    tally.markMismatch(); // one of the six completed ones
    EXPECT_EQ(tally.attempted, 8u);
    EXPECT_EQ(tally.failed(), 3u);
    EXPECT_DOUBLE_EQ(tally.errorRate(), 3.0 / 8.0);
    EXPECT_DOUBLE_EQ(OperationTally{}.errorRate(), 0.0);
}

} // namespace
} // namespace perfbench
