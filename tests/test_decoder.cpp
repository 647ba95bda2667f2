// Tests for the decoding-matrix builder (Eq. 2), the arrival-driven decode
// session and the streaming decoder built on it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "core/decoder.hpp"
#include "core/decoding_cache.hpp"
#include "core/group_based.hpp"
#include "core/heter_aware.hpp"
#include "core/naive.hpp"
#include "core/robustness.hpp"
#include "core/scheme_factory.hpp"
#include "util/rng.hpp"

namespace hgc {
namespace {

TEST(DecodingMatrix, OneRowPerPattern) {
  Rng rng(51);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  const auto rows = build_decoding_matrix(scheme);
  EXPECT_EQ(rows.size(), 5u);  // C(5,1)
  for (const auto& row : rows) {
    // Coefficients vanish on the pattern's stragglers and reconstruct 1.
    for (WorkerId w : row.stragglers)
      EXPECT_DOUBLE_EQ(row.coefficients[w], 0.0);
    Vector ab(scheme.num_partitions());
    sparse::gemv_t(scheme.sparse_matrix(), row.coefficients, ab);
    for (double v : ab) EXPECT_NEAR(v, 1.0, 1e-8);
  }
}

TEST(DecodingMatrix, PatternCountMatchesBinomial) {
  Rng rng(52);
  HeterAwareScheme scheme({2, 2, 3, 3, 4, 4}, 9, 2, rng);
  EXPECT_EQ(build_decoding_matrix(scheme).size(), 15u);  // C(6,2)
}

TEST(DecodingMatrix, NaiveHasSingleEmptyPattern) {
  NaiveScheme naive(4);
  const auto rows = build_decoding_matrix(naive);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].stragglers.empty());
  EXPECT_EQ(rows[0].coefficients, Vector(4, 1.0));
}

/// A deliberately broken scheme: decodable only when every worker responded
/// (claims) — or never (s = 0 case) — to exercise the builder's error paths.
class NeverDecodableScheme : public CodingScheme {
 public:
  NeverDecodableScheme(std::size_t m, std::size_t s)
      : CodingScheme(SparseRowMatrix::from_dense(Matrix::ones(m, 1)),
                     Assignment(m, {0}), s) {}
  std::string name() const override { return "never-decodable"; }
  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>&) const override {
    return std::nullopt;
  }
};

TEST(DecodingMatrix, EmptyPatternErrorDoesNotInventAWorkerId) {
  // s = 0 enumerates one empty pattern; the old message printed m ("worker
  // 2" here) as "the worker starting the pattern".
  NeverDecodableScheme scheme(2, 0);
  try {
    build_decoding_matrix(scheme);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty straggler pattern"), std::string::npos)
        << what;
    EXPECT_EQ(what.find("worker 2"), std::string::npos) << what;
  }
}

TEST(DecodingMatrix, NonEmptyPatternErrorNamesItsFirstWorker) {
  NeverDecodableScheme scheme(3, 1);
  try {
    build_decoding_matrix(scheme);
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("starting at worker 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(StreamingDecoder, DecodesAtFirstSufficientArrival) {
  Rng rng(53);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);

  // Per-partition scalar "gradients" 1..7; aggregate = 28.
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(0, encode_gradient(scheme, 0, grads)));
  EXPECT_FALSE(decoder.add_result(1, encode_gradient(scheme, 1, grads)));
  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_FALSE(decoder.ready());
  // Fourth arrival: only one worker missing <= s, decodable.
  EXPECT_TRUE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_TRUE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 4u);
  const Vector aggregate = decoder.aggregate();
  ASSERT_EQ(aggregate.size(), 1u);
  EXPECT_NEAR(aggregate[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, ExtraResultsAreUnused) {
  Rng rng(54);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  for (WorkerId w = 0; w < 4; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  ASSERT_TRUE(decoder.ready());
  // Late fifth result: recorded but not part of the decode.
  EXPECT_FALSE(decoder.add_result(4, encode_gradient(scheme, 4, grads)));
  const auto unused = decoder.unused_workers();
  EXPECT_EQ(unused, (std::vector<WorkerId>{4}));
}

TEST(StreamingDecoder, RejectsDuplicateResult) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  decoder.add_result(0, Vector{1.0});
  EXPECT_THROW(decoder.add_result(0, Vector{1.0}), std::invalid_argument);
}

TEST(StreamingDecoder, ThrowsBeforeReady) {
  Rng rng(56);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  EXPECT_THROW(decoder.aggregate(), DecodeError);
  EXPECT_THROW(decoder.coefficients(), DecodeError);
}

TEST(StreamingDecoder, ResetAllowsReuse) {
  Rng rng(57);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {2.0};
  for (WorkerId w = 0; w < 4; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  ASSERT_TRUE(decoder.ready());
  decoder.reset();
  EXPECT_FALSE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 0u);
  // Second iteration decodes again from scratch.
  for (WorkerId w = 1; w < 5; ++w)
    decoder.add_result(w, encode_gradient(scheme, w, grads));
  EXPECT_TRUE(decoder.ready());
  EXPECT_NEAR(decoder.aggregate()[0], 14.0, 1e-8);
}

TEST(StreamingDecoder, GroupFastPathDecodesBelowFullQuorum) {
  // Group-based {1,2,3,4,4}: groups {0,1,4} and {2,3}, so
  // min_results_required() is 2 — far below the m−s = 4 of heter-aware.
  // Arrival order 2, 3 completes a group: the first arrival must be skipped
  // by the fast path (count < min) and the second must decode immediately.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  ASSERT_EQ(scheme.min_results_required(), 2u);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_FALSE(decoder.ready());
  EXPECT_TRUE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_TRUE(decoder.ready());
  EXPECT_EQ(decoder.results_received(), 2u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, ArrivalOrderPastMinRequiresMoreSolves) {
  // Arrival order 0, 1, 2, 4: counts 2 and 3 are at/above the group-based
  // minimum but undecodable (no complete group, fewer than active−s
  // results), so the decoder keeps answering "not yet" until group {0,1,4}
  // completes on the fourth arrival. Worker 2's result ends up unused.
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {double(p + 1)};

  EXPECT_FALSE(decoder.add_result(0, encode_gradient(scheme, 0, grads)));
  EXPECT_FALSE(decoder.add_result(1, encode_gradient(scheme, 1, grads)));
  EXPECT_FALSE(decoder.add_result(2, encode_gradient(scheme, 2, grads)));
  EXPECT_TRUE(decoder.add_result(4, encode_gradient(scheme, 4, grads)));
  EXPECT_EQ(decoder.results_received(), 4u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
  EXPECT_DOUBLE_EQ(decoder.coefficients()[2], 0.0);
  EXPECT_EQ(decoder.unused_workers(), (std::vector<WorkerId>{2}));

  // A result arriving after decodability is recorded but changes nothing.
  EXPECT_FALSE(decoder.add_result(3, encode_gradient(scheme, 3, grads)));
  EXPECT_EQ(decoder.results_received(), 5u);
  EXPECT_NEAR(decoder.aggregate()[0], 28.0, 1e-8);
}

TEST(StreamingDecoder, DuplicateAfterDecodabilityStillThrows) {
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  std::vector<Vector> grads(7);
  for (std::size_t p = 0; p < 7; ++p) grads[p] = {1.0};
  decoder.add_result(2, encode_gradient(scheme, 2, grads));
  decoder.add_result(3, encode_gradient(scheme, 3, grads));
  ASSERT_TRUE(decoder.ready());
  EXPECT_THROW(decoder.add_result(2, encode_gradient(scheme, 2, grads)),
               std::invalid_argument);
}

TEST(StreamingDecoder, ResetClearsDuplicateTracking) {
  Rng rng(55);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  StreamingDecoder decoder(scheme);
  decoder.add_result(0, Vector{1.0});
  decoder.reset();
  // The same worker may report again in the next iteration.
  EXPECT_NO_THROW(decoder.add_result(0, Vector{1.0}));
}

// ------------------------------------------------------ decode sessions --

// What a session must reproduce: the canonical decode polled on every
// arrival past min_results_required, plus completion_time's tail probe of
// the full received set when that bound was never reached.
struct ReferenceDecode {
  std::optional<std::size_t> arrival;  // index into the order; npos = tail
  std::optional<Vector> coefficients;
};

ReferenceDecode poll_every_arrival(const CodingScheme& scheme,
                                   const std::vector<WorkerId>& order) {
  std::vector<bool> received(scheme.num_workers(), false);
  for (std::size_t i = 0; i < order.size(); ++i) {
    received[order[i]] = true;
    if (i + 1 < scheme.min_results_required()) continue;
    if (auto coefficients = scheme.decoding_coefficients(received))
      return {i, std::move(coefficients)};
  }
  if (!order.empty() && order.size() < scheme.min_results_required())
    if (auto coefficients = scheme.decoding_coefficients(received))
      return {std::string::npos, std::move(coefficients)};
  return {};
}

void expect_bit_equal(const Vector& a, const Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "coefficient " << i;
}

TEST(DecodeSession, MatchesPollingReferenceOnEveryKind) {
  // Five kinds × two tolerances × three throughput profiles (the last one
  // leaves its slowest workers with no data) × seeded arrival orders with
  // up to s+1 faulted workers, with and without a shared DecodingCache.
  const std::size_t m = 12;
  const std::size_t k = 12;
  const std::vector<Throughputs> profiles = {
      Throughputs(m, 1.0),
      {1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4},
      {0.01, 0.02, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1}};
  const std::vector<SchemeKind> kinds = {
      SchemeKind::kNaive, SchemeKind::kCyclic,
      SchemeKind::kFractionalRepetition, SchemeKind::kHeterAware,
      SchemeKind::kGroupBased};
  std::size_t zero_load_arrivals = 0, undecodable = 0, early_decodes = 0;
  for (SchemeKind kind : kinds)
    for (std::size_t s : {1u, 2u})
      for (std::size_t p = 0; p < profiles.size(); ++p) {
        Rng rng(1000 + 10 * s + p);
        const auto scheme = make_scheme(kind, profiles[p], k, s, rng);
        DecodingCache cache(*scheme);
        for (int trial = 0; trial < 40; ++trial) {
          SCOPED_TRACE(to_string(kind) + " s=" + std::to_string(s) +
                       " profile=" + std::to_string(p) +
                       " trial=" + std::to_string(trial));
          std::vector<WorkerId> order(m);
          for (WorkerId w = 0; w < m; ++w) order[w] = w;
          for (std::size_t i = m - 1; i > 0; --i)
            std::swap(order[i], order[static_cast<std::size_t>(
                                    rng.uniform_int(0, std::int64_t(i)))]);
          // The first `faulted` workers of the shuffle never arrive.
          const auto faulted =
              static_cast<std::size_t>(rng.uniform_int(0, std::int64_t(s + 1)));
          order.erase(order.begin(), order.begin() + std::ptrdiff_t(faulted));
          for (WorkerId w : order)
            if (scheme->load(w) == 0) ++zero_load_arrivals;

          const ReferenceDecode want = poll_every_arrival(*scheme, order);
          if (!want.coefficients) ++undecodable;
          if (want.arrival && *want.arrival + s + 1 < order.size())
            ++early_decodes;
          for (DecodingCache* c : {static_cast<DecodingCache*>(nullptr),
                                   &cache}) {
            DecodeSession session(*scheme, c);
            std::optional<std::size_t> got;
            for (std::size_t i = 0; i < order.size() && !got; ++i)
              if (session.on_arrival(order[i])) got = i;
            if (!got && session.finish()) got = std::string::npos;
            ASSERT_EQ(got, want.arrival) << (c ? "cached" : "uncached");
            ASSERT_EQ(session.ready(), want.coefficients.has_value());
            if (want.coefficients)
              expect_bit_equal(session.coefficients(), *want.coefficients);
          }
        }
      }
  // The generated cases must exercise every branch the gate can take.
  EXPECT_GT(zero_load_arrivals, 0u);
  EXPECT_GT(undecodable, 0u);
  EXPECT_GT(early_decodes, 0u);
}

TEST(DecodeSession, ResetStartsAFreshRound) {
  Rng rng(41);
  GroupBasedScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  DecodeSession session(scheme);
  EXPECT_FALSE(session.on_arrival(2));
  EXPECT_TRUE(session.on_arrival(3));  // group {2,3} completes
  session.reset();
  EXPECT_FALSE(session.ready());
  EXPECT_EQ(session.arrivals(), 0u);
  // The group countdown restarted: worker 3 alone no longer decodes.
  EXPECT_FALSE(session.on_arrival(3));
  EXPECT_TRUE(session.on_arrival(2));
}

TEST(DecodeSession, RejectsCacheOfAnotherScheme) {
  Rng rng(42);
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  HeterAwareScheme other({1, 2, 3, 4, 4}, 7, 1, rng);
  DecodingCache foreign(other);
  EXPECT_THROW(DecodeSession(scheme, &foreign), std::invalid_argument);
}

// Forwards to an inner scheme — including its DecodeGate, so sessions gate
// exactly as they would on the inner scheme — and counts canonical calls.
class GateForwardingCounter : public CodingScheme {
 public:
  explicit GateForwardingCounter(const CodingScheme& inner)
      : CodingScheme(SparseRowMatrix(inner.sparse_matrix()),
                     Assignment(inner.assignment()),
                     inner.stragglers_tolerated()),
        inner_(inner) {
    set_decode_gate(inner.decode_gate());
  }

  std::string name() const override { return "counting"; }

  std::optional<Vector> decoding_coefficients(
      const std::vector<bool>& received) const override {
    ++calls;
    return inner_.decoding_coefficients(received);
  }

  std::size_t min_results_required() const override {
    return inner_.min_results_required();
  }

  mutable std::size_t calls = 0;

 private:
  const CodingScheme& inner_;
};

TEST(DecodeSession, GroupSchemeAtScaleMakesAtMostSPlusTwoCanonicalCalls) {
  // Polling the canonical decode on every arrival past the smallest group
  // costs O(m) per arrival, O(m²) per round. The session must hold a
  // 2000-worker round to a handful of canonical calls: with at most s
  // faulted workers, one call on the arrival its gate opens, plus at most
  // one per arrival that cannot help (a faulted or zero-load slot).
  const std::size_t m = 2000;
  const std::size_t s = 2;
  Rng rng(2000);
  Throughputs c(m);
  for (double& v : c) v = rng.uniform(1.0, 4.0);
  const GroupBasedScheme inner(c, m, s, rng);
  const GateForwardingCounter scheme(inner);
  ASSERT_LT(inner.min_results_required(), m / 2)
      << "the grid must leave room for polling to blow up";

  StreamingDecoder decoder(scheme);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<WorkerId> order;
    for (WorkerId w = 0; w < m; ++w)
      if (scheme.load(w) > 0) order.push_back(w);
    for (std::size_t i = order.size() - 1; i > 0; --i)
      std::swap(order[i], order[static_cast<std::size_t>(
                              rng.uniform_int(0, std::int64_t(i)))]);
    order.resize(order.size() - static_cast<std::size_t>(round % (s + 1)));

    decoder.reset();
    scheme.calls = 0;
    for (WorkerId w : order)
      if (decoder.add_result(w, {})) break;
    EXPECT_TRUE(decoder.ready());
    EXPECT_LE(scheme.calls, s + 2);
    EXPECT_GE(scheme.calls, 1u);
  }
}

TEST(OnesInRowSpan, BasicGeometry) {
  const SparseRowMatrix b =
      SparseRowMatrix::from_dense(Matrix{{1.0, 0.0}, {0.0, 1.0}, {2.0, 2.0}});
  const std::vector<std::size_t> both = {0, 1};
  EXPECT_TRUE(ones_in_row_span(b, both));
  const std::vector<std::size_t> third = {2};
  EXPECT_TRUE(ones_in_row_span(b, third));  // 0.5 * (2,2)
  const std::vector<std::size_t> first = {0};
  EXPECT_FALSE(ones_in_row_span(b, first));
  EXPECT_FALSE(ones_in_row_span(b, std::vector<std::size_t>{}));
}

TEST(ForEachStragglerPattern, CountsAndEarlyExit) {
  std::size_t count = 0;
  for_each_straggler_pattern(6, 2, [&](const StragglerSet&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 15u);  // C(6,2)

  count = 0;
  const bool completed = for_each_straggler_pattern(
      6, 2, [&](const StragglerSet&) { return ++count < 4; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 4u);
}

TEST(ForEachStragglerPattern, ZeroStragglersVisitsOnce) {
  std::size_t count = 0;
  for_each_straggler_pattern(5, 0, [&](const StragglerSet& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1u);
}

TEST(CompletionTime, MatchesHandComputedOrder) {
  Rng rng(58);
  // c = [1,2,3,4,4], loads = [1,2,3,4,4] (partitions), t_i = load/c = 1 for
  // every worker; any single straggler still completes at t = 1.
  HeterAwareScheme scheme({1, 2, 3, 4, 4}, 7, 1, rng);
  const Throughputs c = {1, 2, 3, 4, 4};
  const auto t = completion_time(scheme, c, {2});
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
}

TEST(CompletionTime, UndecodableReturnsNullopt) {
  NaiveScheme naive(3);
  const Throughputs c = {1, 1, 1};
  EXPECT_FALSE(completion_time(naive, c, {0}).has_value());
}

}  // namespace
}  // namespace hgc
