#include "common/rng.hpp"

#include <bit>
#include <bitset>
#include <cstddef>

namespace fw {
namespace {

constexpr int kStateBits = 256;

/// A polynomial over GF(2) of degree below 256; bit i is the coefficient
/// of x^i.
using Poly = std::array<std::uint64_t, 4>;

bool coefficient(const Poly& a, int i) { return ((a[i / 64] >> (i % 64)) & 1) != 0; }

/// a := a * x mod p, where `p` holds the low coefficients of a monic
/// degree-256 polynomial.
void times_x(Poly& a, const Poly& p) {
  const bool carry = (a[3] >> 63) != 0;
  for (int w = 3; w > 0; --w) a[w] = (a[w] << 1) | (a[w - 1] >> 63);
  a[0] <<= 1;
  if (carry) {
    for (int w = 0; w < 4; ++w) a[w] ^= p[w];
  }
}

Poly mul_mod(const Poly& a, const Poly& b, const Poly& p) {
  Poly r{};
  for (int i = kStateBits - 1; i >= 0; --i) {
    times_x(r, p);
    if (coefficient(b, i)) {
      for (int w = 0; w < 4; ++w) r[w] ^= a[w];
    }
  }
  return r;
}

/// x^k mod p by square-and-multiply.
Poly x_pow_mod(std::uint64_t k, const Poly& p) {
  Poly r{1, 0, 0, 0};
  for (int bit = 63 - std::countl_zero(k); bit >= 0; --bit) {
    r = mul_mod(r, r, p);
    if (((k >> bit) & 1) != 0) times_x(r, p);
  }
  return r;
}

/// Berlekamp–Massey over GF(2): the characteristic polynomial of the
/// shortest linear recurrence that generates `s` (its low 256
/// coefficients; the recurrence must have order 256).
Poly shortest_recurrence(const std::bitset<2 * kStateBits>& s) {
  std::bitset<2 * kStateBits + 1> c, b;  // connection polynomials, c_0 = 1
  c[0] = b[0] = true;
  int len = 0;
  int shift = 1;
  for (int n = 0; n < 2 * kStateBits; ++n) {
    bool discrepancy = s[static_cast<std::size_t>(n)];
    for (int i = 1; i <= len; ++i) {
      discrepancy ^= c[static_cast<std::size_t>(i)] && s[static_cast<std::size_t>(n - i)];
    }
    if (!discrepancy) {
      ++shift;
      continue;
    }
    const auto prev = c;
    c ^= b << static_cast<std::size_t>(shift);
    if (2 * len <= n) {
      len = n + 1 - len;
      b = prev;
      shift = 1;
    } else {
      ++shift;
    }
  }
  // s_n = sum_i c_i s_(n-i) means the transition T satisfies
  // T^len = sum_i c_i T^(len-i): the coefficient of x^j is c_(len-j).
  Poly p{};
  for (int j = 0; j < kStateBits && j <= len; ++j) {
    if (c[static_cast<std::size_t>(len - j)]) p[j / 64] |= std::uint64_t{1} << (j % 64);
  }
  return p;
}

}  // namespace

void Xoshiro256::advance(std::uint64_t k) {
  // The transition T is a linear map on 256 state bits whose characteristic
  // polynomial P is primitive (the period is 2^256 - 1), so one state bit's
  // sequence has minimal polynomial P and Berlekamp–Massey recovers it from
  // 512 terms. Then T^k = (x^k mod P)(T) = sum_i r_i T^i: summing the next
  // 256 states selected by r's coefficients lands exactly k steps ahead.
  static const Poly kCharPoly = [] {
    Xoshiro256 probe;
    std::bitset<2 * kStateBits> bits;
    for (std::size_t n = 0; n < bits.size(); ++n) {
      bits[n] = (probe.state_[0] & 1) != 0;
      probe.step();
    }
    return shortest_recurrence(bits);
  }();

  const Poly r = x_pow_mod(k, kCharPoly);
  std::array<std::uint64_t, 4> sum{};
  for (int i = 0; i < kStateBits; ++i) {
    if (coefficient(r, i)) {
      for (int w = 0; w < 4; ++w) sum[w] ^= state_[w];
    }
    step();
  }
  state_ = sum;
}

}  // namespace fw
