#include "redundancy/coded.h"

#include <algorithm>
#include <limits>

#include "common/expect.h"

namespace smartred::redundancy {
namespace {

// GF(2^8) with the AES-adjacent primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D) and generator 0x02, via compile-time log/exp tables. The exp
// table is doubled so products of two logs (max 254 + 254) index it
// without a modulo, and div() can add the inverse offset (max 254 + 255).
struct Gf256Tables {
  std::array<std::uint8_t, 512> exp{};
  std::array<std::uint16_t, 256> log{};
};

constexpr Gf256Tables build_gf256() {
  Gf256Tables tables{};
  std::uint32_t x = 1;
  for (int i = 0; i < 255; ++i) {
    tables.exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
    tables.log[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if ((x & 0x100U) != 0) x ^= 0x11DU;
  }
  for (int i = 255; i < 512; ++i) {
    tables.exp[static_cast<std::size_t>(i)] =
        tables.exp[static_cast<std::size_t>(i - 255)];
  }
  return tables;
}

constexpr Gf256Tables kGf = build_gf256();

constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kGf.exp[static_cast<std::size_t>(kGf.log[a] + kGf.log[b])];
}

constexpr std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  // b != 0 always holds here: divisors are XORs of distinct x-coordinates.
  if (a == 0) return 0;
  return kGf.exp[static_cast<std::size_t>(kGf.log[a] + 255 - kGf.log[b])];
}

/// Each byte of `word` scaled by the GF(2^8) scalar `c`.
constexpr std::uint32_t gf_scale_word(std::uint32_t word, std::uint8_t c) {
  std::uint32_t out = 0;
  for (int byte = 0; byte < 4; ++byte) {
    const auto b = static_cast<std::uint8_t>(word >> (8 * byte));
    out |= static_cast<std::uint32_t>(gf_mul(b, c)) << (8 * byte);
  }
  return out;
}

/// Lagrange-evaluates the degree-(count-1) polynomial through
/// (xs[j], words[j]) at `x`, byte-wise. The scalar basis coefficient
/// c_j = prod_{m != j} (x + x_m) / (x_j + x_m) is shared by all four bytes
/// of a word (addition in GF(2^8) is XOR).
std::uint32_t lagrange_at(std::span<const std::uint8_t> xs,
                          std::span<const std::uint32_t> words,
                          std::uint8_t x) {
  const std::size_t count = xs.size();
  for (std::size_t j = 0; j < count; ++j) {
    if (xs[j] == x) return words[j];  // exact node: no interpolation needed
  }
  std::uint32_t out = 0;
  for (std::size_t j = 0; j < count; ++j) {
    std::uint8_t numerator = 1;
    std::uint8_t denominator = 1;
    for (std::size_t m = 0; m < count; ++m) {
      if (m == j) continue;
      numerator = gf_mul(numerator, static_cast<std::uint8_t>(x ^ xs[m]));
      denominator =
          gf_mul(denominator, static_cast<std::uint8_t>(xs[j] ^ xs[m]));
    }
    out ^= gf_scale_word(words[j], gf_div(numerator, denominator));
  }
  return out;
}

}  // namespace

Codec::Codec(int n, int k) : n_(n), k_(k) {
  SMARTRED_EXPECT(n >= 1 && n <= kMaxCodedPieces,
                  "codec needs 1 <= n <= kMaxCodedPieces");
  SMARTRED_EXPECT(k >= 1 && k <= n, "codec needs 1 <= k <= n");
}

ResultValue Codec::piece(ResultValue value, int index) const {
  SMARTRED_EXPECT(index >= 0 && index < n_, "piece index out of range");
  const auto word = static_cast<std::uint32_t>(value);
  if (index < k_) {
    return static_cast<ResultValue>(
        coded_mix32(word, static_cast<std::uint32_t>(index)));
  }
  std::array<std::uint8_t, kMaxCodedPieces> xs;
  std::array<std::uint32_t, kMaxCodedPieces> words;
  for (int i = 0; i < k_; ++i) {
    xs[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    words[static_cast<std::size_t>(i)] =
        coded_mix32(word, static_cast<std::uint32_t>(i));
  }
  const auto count = static_cast<std::size_t>(k_);
  return static_cast<ResultValue>(
      lagrange_at(std::span(xs.data(), count), std::span(words.data(), count),
                  static_cast<std::uint8_t>(index)));
}

void Codec::encode(ResultValue value, std::span<ResultValue> out) const {
  SMARTRED_EXPECT(out.size() == static_cast<std::size_t>(n_),
                  "encode output span must hold n pieces");
  for (int i = 0; i < n_; ++i) {
    out[static_cast<std::size_t>(i)] = piece(value, i);
  }
}

Codec::Decoded Codec::decode(std::span<const Share> shares) const {
  SMARTRED_EXPECT(shares.size() == static_cast<std::size_t>(k_),
                  "decode needs exactly k shares");
  std::array<std::uint8_t, kMaxCodedPieces> xs;
  std::array<std::uint32_t, kMaxCodedPieces> words;
  for (std::size_t j = 0; j < shares.size(); ++j) {
    const Share& share = shares[j];
    SMARTRED_EXPECT(share.index >= 0 && share.index < n_,
                    "share index out of range");
    for (std::size_t m = 0; m < j; ++m) {
      SMARTRED_EXPECT(shares[m].index != share.index,
                      "decode shares must have distinct indices");
    }
    xs[j] = static_cast<std::uint8_t>(share.index);
    words[j] = static_cast<std::uint32_t>(share.value);
  }
  const std::span<const std::uint8_t> xspan(xs.data(), shares.size());
  const std::span<const std::uint32_t> wspan(words.data(), shares.size());

  Decoded decoded;
  for (int i = 0; i < n_; ++i) {
    decoded.codeword[static_cast<std::size_t>(i)] = static_cast<ResultValue>(
        lagrange_at(xspan, wspan, static_cast<std::uint8_t>(i)));
  }
  const auto value = static_cast<std::uint32_t>(decoded.codeword[0]);
  decoded.value = static_cast<ResultValue>(value);
  decoded.self_consistent = true;
  for (int i = 1; i < k_; ++i) {
    if (static_cast<std::uint32_t>(decoded.codeword[static_cast<std::size_t>(
            i)]) != coded_mix32(value, static_cast<std::uint32_t>(i))) {
      decoded.self_consistent = false;
      break;
    }
  }
  return decoded;
}

CodedConfig CodedConfig::normalized() const {
  static_assert(kMaxCodedPieces == 64, "the message below names the cap");
  SMARTRED_EXPECT(n >= 1 && n <= kMaxCodedPieces,
                  "coded redundancy needs 1 <= n <= 64");
  SMARTRED_EXPECT(k >= 1 && k <= n, "coded redundancy needs 1 <= k <= n");
  SMARTRED_EXPECT(g >= 1 && n % g == 0,
                  "coded redundancy needs a wave size g that divides n");
  SMARTRED_EXPECT(d >= 1, "coded redundancy needs margin d >= 1");
  SMARTRED_EXPECT(v >= -1, "coded redundancy needs verify overhead v >= 0 "
                           "(or -1 for the default)");
  CodedConfig out = *this;
  if (out.v < 0) out.v = std::min(1, n - k);
  SMARTRED_EXPECT(k + out.v <= n,
                  "coded redundancy needs verify overhead v with k+v <= n");
  return out;
}

int coded_min_jobs(const CodedConfig& config) {
  const CodedConfig c = config.normalized();
  // Round-robin waves of g (g | n): after (d-1) full cycles every piece
  // has d-1 votes; the next ceil((k+v)/g) waves push k+v pieces to d.
  const int need = c.k + c.v;
  return (c.d - 1) * c.n + c.g * ((need + c.g - 1) / c.g);
}

double coded_first_pass_reliability(const CodedConfig& config, double r) {
  double out = 1.0;
  const int jobs = coded_min_jobs(config);
  for (int i = 0; i < jobs; ++i) out *= r;
  return out;
}

CodedRedundancy::CodedRedundancy(const CodedConfig& config)
    : config_(config.normalized()), codec_(config_.n, config_.k) {}

Decision CodedRedundancy::decide(std::span<const Vote> votes) {
  const int n = config_.n;
  const int k = config_.k;
  const int need = k + config_.v;
  if (votes.empty()) return Decision::dispatch(config_.g);

  // Fold the wave into per-piece tallies in chunks: histogram the chunk by
  // piece, scatter values into piece-contiguous runs (stable, so within-
  // piece first-seen order is arrival order), then bulk-fold each run
  // through the tally's dense counting path instead of a per-vote add().
  std::array<VoteTally, kMaxCodedPieces> tallies;
  {
    constexpr std::size_t kChunk = 1024;
    ResultValue scattered[kChunk];
    std::array<int, kMaxCodedPieces + 1> offsets{};
    const std::size_t count = votes.size();
    for (std::size_t base = 0; base < count; base += kChunk) {
      const std::size_t chunk = std::min(kChunk, count - base);
      offsets.fill(0);
      for (std::size_t i = 0; i < chunk; ++i) {
        const Vote& vote = votes[base + i];
        SMARTRED_EXPECT(vote.piece >= 0 && vote.piece < n,
                        "coded vote carries an out-of-range piece index");
        ++offsets[static_cast<std::size_t>(vote.piece) + 1];
      }
      for (int p = 0; p < n; ++p) {
        offsets[static_cast<std::size_t>(p) + 1] +=
            offsets[static_cast<std::size_t>(p)];
      }
      std::array<int, kMaxCodedPieces> cursor{};
      for (std::size_t i = 0; i < chunk; ++i) {
        const Vote& vote = votes[base + i];
        const auto piece = static_cast<std::size_t>(vote.piece);
        scattered[static_cast<std::size_t>(offsets[piece]) +
                  static_cast<std::size_t>(cursor[piece]++)] = vote.value;
      }
      for (int p = 0; p < n; ++p) {
        const auto piece = static_cast<std::size_t>(p);
        const int run = cursor[piece];
        if (run > 0) {
          tallies[piece].fold_values(std::span<const ResultValue>(
              scattered + offsets[piece], static_cast<std::size_t>(run)));
        }
      }
    }
  }

  // Settled pieces (margin >= d), ascending by index. d >= 1 makes each
  // settled leader unique, so the decision is arrival-order independent.
  std::array<int, kMaxCodedPieces> settled;
  int settled_count = 0;
  for (int p = 0; p < n; ++p) {
    const VoteTally& tally = tallies[static_cast<std::size_t>(p)];
    if (tally.total() > 0 && tally.margin() >= config_.d) {
      settled[static_cast<std::size_t>(settled_count++)] = p;
    }
  }
  if (settled_count < need) return Decision::dispatch(config_.g);

  // Deterministic exclusion search: decode from the first k non-excluded
  // settled pieces; on self-check or agreement failure, exclude the used
  // share with the smallest margin (largest index on ties) and retry.
  // Each round excludes one piece, so the loop is bounded by n - k + 1.
  std::array<bool, kMaxCodedPieces> excluded{};
  std::array<Codec::Share, kMaxCodedPieces> shares;
  int rejects = 0;
  int available = settled_count;
  while (available >= k) {
    int taken = 0;
    for (int s = 0; s < settled_count && taken < k; ++s) {
      const int p = settled[static_cast<std::size_t>(s)];
      if (excluded[static_cast<std::size_t>(p)]) continue;
      shares[static_cast<std::size_t>(taken++)] = Codec::Share{
          p, tallies[static_cast<std::size_t>(p)].leader()};
    }
    const Codec::Decoded decoded =
        codec_.decode(std::span(shares.data(), static_cast<std::size_t>(k)));
    if (decoded.self_consistent) {
      int agree = 0;
      for (int s = 0; s < settled_count; ++s) {
        const int p = settled[static_cast<std::size_t>(s)];
        if (tallies[static_cast<std::size_t>(p)].leader() ==
            decoded.codeword[static_cast<std::size_t>(p)]) {
          ++agree;
        }
      }
      if (agree >= need) {
        Decision out =
            Decision::accept(decoded.value, Decision::Reason::kDecodeVerified);
        out.decode_rejects = rejects;
        return out;
      }
    }
    ++rejects;
    int worst = -1;
    int worst_margin = std::numeric_limits<int>::max();
    for (int t = 0; t < k; ++t) {
      const int p = shares[static_cast<std::size_t>(t)].index;
      const int margin = tallies[static_cast<std::size_t>(p)].margin();
      if (margin < worst_margin || (margin == worst_margin && p > worst)) {
        worst = p;
        worst_margin = margin;
      }
    }
    excluded[static_cast<std::size_t>(worst)] = true;
    --available;
  }
  Decision out = Decision::dispatch(config_.g);
  out.decode_rejects = rejects;
  return out;
}

int CodedFactory::Encoder::piece_of(int ordinal) const {
  SMARTRED_EXPECT(ordinal >= 0, "job ordinal cannot be negative");
  return ordinal % codec_->n();
}

ResultValue CodedFactory::Encoder::job_value(ResultValue task_value,
                                             int ordinal) const {
  SMARTRED_EXPECT(ordinal >= 0, "job ordinal cannot be negative");
  return codec_->piece(task_value, ordinal % codec_->n());
}

CodedFactory::CodedFactory(const CodedConfig& config)
    : config_(config.normalized()),
      codec_(config_.n, config_.k),
      encoder_(codec_) {}

std::unique_ptr<RedundancyStrategy> CodedFactory::make() const {
  return std::make_unique<CodedRedundancy>(config_);
}

std::string CodedFactory::name() const {
  return "coded(n=" + std::to_string(config_.n) +
         ",k=" + std::to_string(config_.k) + ",g=" + std::to_string(config_.g) +
         ",d=" + std::to_string(config_.d) + ",v=" + std::to_string(config_.v) +
         ")";
}

}  // namespace smartred::redundancy
