// Coded redundancy: an (n, k) MDS-style strategy family beyond
// vote-replication (ROADMAP item 3).
//
// The paper's three techniques replicate whole tasks and vote. Coded
// computation ("Leveraging Coding Techniques for Speeding up Distributed
// Computing"; "Diversity/Parallelism Trade-off in Distributed Systems with
// Redundancy" — PAPERS.md) instead encodes a task into n pieces such that
// any k of them reconstruct the answer:
//
//  * The task's 32-bit result is expanded into k data words
//    d_0 = value, d_i = mix32(value, i) — a keyed self-check relation the
//    decoder re-derives, so a reconstruction from corrupted shares cannot
//    silently pass.
//  * The data words are the values of a degree-(k-1) polynomial over
//    GF(2^8) (byte-wise across the word) at x = 0..k-1; piece i is the
//    polynomial evaluated at x = i. Pieces 0..k-1 are the data words
//    themselves (systematic), pieces k..n-1 are Reed–Solomon-style parity.
//    Any k distinct pieces Lagrange-interpolate the full codeword.
//
// The decision engine composes the code with the paper's tally machinery
// (decode-verify *after* per-piece voting, never instead of it):
//
//  * Jobs are dispatched in waves of g — the diversity/parallelism knob.
//    g = n runs every piece at once (all parallelism: accept on the k+v
//    fastest of n, which is where the straggler win over IR comes from);
//    g = 1 trickles one piece at a time (all diversity: minimal dispatch,
//    maximal sequential latency). The j-th job overall computes piece
//    j mod n, so repeated waves re-vote earlier pieces.
//  * Each piece runs its own VoteTally; a piece is *settled* once its
//    margin (leader minus runner-up) reaches d — the iterative technique's
//    margin rule applied per piece.
//  * With at least k+v settled pieces the engine decodes from k of them,
//    re-derives the mix32 self-check, and counts how many settled leaders
//    agree with the reconstructed codeword. The codeword is accepted only
//    when >= k+v settled pieces agree — so a wrong accept needs at least
//    v+1 corrupted-and-settled pieces all consistent with one alternative
//    valid codeword, on top of defeating the self-check. On rejection the
//    engine excludes the least-trusted share (smallest margin, largest
//    index on ties) and retries deterministically until fewer than k
//    candidates remain, then asks for another wave.
//
// coded:n=1,k=1,g=1,v=0,d=D degenerates to exactly iterative:d=D (one
// piece, margin rule, no parity) — the closed-form bridge the differential
// tests cross-check against analysis.h.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "redundancy/strategy.h"
#include "redundancy/types.h"

namespace smartred::redundancy {

/// Hard cap on n: keeps the decoder's scratch on the stack and the
/// per-piece x-coordinates within GF(2^8). Far above any sane config —
/// the diversity/parallelism sweet spots live at n <= 16.
inline constexpr int kMaxCodedPieces = 64;

/// The keyed expansion of a task value into its i-th data word
/// (i in [0, k)): word 0 is the value itself, later words are a splitmix-
/// style hash of (value, i). Decoders re-derive words 1..k-1 from the
/// reconstructed word 0 — the self-check that fails closed on corruption.
[[nodiscard]] constexpr std::uint32_t coded_mix32(std::uint32_t value,
                                                  std::uint32_t index) {
  if (index == 0) return value;
  std::uint64_t z = (static_cast<std::uint64_t>(value) << 32) ^
                    (0x9E3779B97F4A7C15ULL * (index + 1));
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z ^ (z >> 32));
}

/// Systematic Reed–Solomon-lite codec over GF(2^8), byte-wise across
/// 32-bit result words. Immutable after construction; encode/decode touch
/// only stack scratch (no allocation — the BM_CodedEncodeDecode perf gate
/// holds this).
class Codec {
 public:
  /// Requires 1 <= k <= n <= kMaxCodedPieces.
  Codec(int n, int k);

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int k() const { return k_; }

  /// The value a correct job reports for piece `index` (in [0, n)) of a
  /// task whose true result is `value`.
  [[nodiscard]] ResultValue piece(ResultValue value, int index) const;

  /// Writes the full n-piece codeword of `value` into out[0..n).
  void encode(ResultValue value, std::span<ResultValue> out) const;

  /// One reconstruction input: a piece index in [0, n) and its value.
  struct Share {
    int index = 0;
    ResultValue value = 0;
  };

  /// A reconstruction attempt from exactly k shares.
  struct Decoded {
    ResultValue value = 0;  ///< reconstructed task result (data word 0)
    /// The full codeword implied by the shares; entries [0, n) are valid.
    std::array<ResultValue, kMaxCodedPieces> codeword{};
    /// True when data words 1..k-1 match coded_mix32(value, i) — the
    /// fail-closed self-check. Always true for k == 1 (no relation to
    /// check); callers must then rely on cross-piece agreement.
    bool self_consistent = false;
  };

  /// Reconstructs the codeword from exactly k shares with distinct indices
  /// in [0, n). Bit-identical output for any share order.
  [[nodiscard]] Decoded decode(std::span<const Share> shares) const;

 private:
  int n_;
  int k_;
};

/// Configuration of one coded strategy instance.
struct CodedConfig {
  int n = 6;  ///< pieces per codeword, in [1, kMaxCodedPieces]
  int k = 4;  ///< pieces needed to reconstruct, in [1, n]
  /// Wave size — encoded pieces dispatched per node group. Must divide n:
  /// waves then tile the piece ring evenly, so every full cycle of n/g
  /// waves votes each piece exactly once.
  int g = 6;
  /// Per-piece settle margin (iterative redundancy's d applied piece-wise);
  /// >= 1 so a settled piece always has a unique, arrival-order-independent
  /// leader.
  int d = 1;
  /// Verification overhead: a decode is accepted only when k+v settled
  /// pieces agree with the reconstruction. Defaults to min(1, n-k); v = 0
  /// (only possible choice when n == k... or explicitly requested) accepts
  /// on bare reconstruction. Requires k+v <= n.
  int v = -1;  ///< -1 = default min(1, n-k)

  /// Resolves the v = -1 default and validates; throws via SMARTRED_EXPECT
  /// on violation (make_strategy reports it as a SpecError).
  [[nodiscard]] CodedConfig normalized() const;
};

/// Minimum dispatched jobs before a coded task *can* accept: enough full
/// waves of g that k+v pieces have d votes each under the round-robin
/// piece schedule. With r = 1 this is exactly the measured jobs-per-task
/// (every task accepts at the first opportunity) — the closed-form anchor
/// of the differential sweep.
[[nodiscard]] int coded_min_jobs(const CodedConfig& config);

/// Lower bound on the probability that a task accepts at coded_min_jobs
/// dispatched jobs when every vote is independently correct with
/// probability r: all of the first coded_min_jobs votes correct suffices.
[[nodiscard]] double coded_first_pass_reliability(const CodedConfig& config,
                                                  double r);

/// The per-piece-voting decision engine described in the header comment.
/// Stateless across decide() calls (a pure function of the votes), so one
/// instance serves any number of in-flight tasks.
class CodedRedundancy final : public RedundancyStrategy {
 public:
  explicit CodedRedundancy(const CodedConfig& config);

  Decision decide(std::span<const Vote> votes) override;

 private:
  CodedConfig config_;  ///< normalized: v resolved
  Codec codec_;
};

class CodedFactory final : public StrategyFactory {
 public:
  explicit CodedFactory(const CodedConfig& config);

  [[nodiscard]] std::unique_ptr<RedundancyStrategy> make() const override;
  [[nodiscard]] bool stateless() const override { return true; }
  [[nodiscard]] const TaskEncoder* encoder() const override {
    return &encoder_;
  }
  [[nodiscard]] bool eager() const override { return true; }
  [[nodiscard]] std::string name() const override;

 private:
  /// Round-robin piece schedule over the codec: ordinal j -> piece j mod n.
  class Encoder final : public TaskEncoder {
   public:
    explicit Encoder(const Codec& codec) : codec_(&codec) {}
    [[nodiscard]] int pieces() const override { return codec_->n(); }
    [[nodiscard]] int piece_of(int ordinal) const override;
    [[nodiscard]] ResultValue job_value(ResultValue task_value,
                                        int ordinal) const override;

   private:
    const Codec* codec_;
  };

  CodedConfig config_;  ///< normalized: v resolved
  Codec codec_;
  Encoder encoder_;
};

}  // namespace smartred::redundancy
