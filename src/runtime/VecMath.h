//===- VecMath.h - Branch-free vectorizable math kernels --------*- C++-*-===//
//
// The reproduction's analogue of Intel's SVML (which the paper links for
// vectorized math): branch-free double-precision implementations of the
// transcendental functions ionic models call. Because they contain no
// data-dependent branches, the host compiler auto-vectorizes loops over
// them with -O3 -march=native, giving the vector engine SIMD math.
//
// Accuracy targets (validated by tests): relative error < 5e-13 for
// exp/log over the ranges ionic models exercise, < 1e-11 for the rest.
// The scalar baseline engine deliberately uses libm instead, matching
// openCARP's scalar code.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_RUNTIME_VECMATH_H
#define LIMPET_RUNTIME_VECMATH_H

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace limpet {
namespace vecmath {

namespace detail {

inline double bitsToDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

inline uint64_t doubleToBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

} // namespace detail

/// Branch-free exp(x). Clamps to [-708, 709] (the IEEE double range);
/// inputs outside produce 0 / +inf like libm up to rounding.
inline double fastExp(double X) {
  // Clamp just past the representable range so overflow yields +inf and
  // underflow yields 0, matching libm.
  const double Hi = 710.5;
  const double Lo = -746.5;
  double Xc = X < Lo ? Lo : (X > Hi ? Hi : X);

  // Range reduction: x = n*ln2 + r with |r| <= ln2/2.
  const double Log2E = 1.4426950408889634073599;
  const double Ln2Hi = 6.93147180369123816490e-01;
  const double Ln2Lo = 1.90821492927058770002e-10;
  double Nf = std::nearbyint(Xc * Log2E);
  double R = Xc - Nf * Ln2Hi;
  R -= Nf * Ln2Lo;

  // exp(r) via a degree-6 rational approximation (Cephes style):
  // exp(r) = 1 + 2r P(r^2) / (Q(r^2) - r P(r^2)).
  const double P0 = 9.99999999999999999910e-01;
  const double P1 = 3.02994407707441961300e-02;
  const double P2 = 1.26177193074810590878e-04;
  const double Q0 = 2.00000000000000000005e+00;
  const double Q1 = 2.27265548208155028766e-01;
  const double Q2 = 2.52448340349684104192e-03;
  const double Q3 = 3.00198505138664455042e-06;
  double R2 = R * R;
  double P = R * (P0 + R2 * (P1 + R2 * P2));
  double Q = Q0 + R2 * (Q1 + R2 * (Q2 + R2 * Q3));
  double ExpR = 1.0 + 2.0 * P / (Q - P);

  // Scale by 2^n through exponent arithmetic. n is within [-1075, 1025];
  // split into two halves so each factor stays normal.
  int64_t N = int64_t(Nf);
  int64_t N1 = N / 2;
  int64_t N2 = N - N1;
  double S1 = detail::bitsToDouble(uint64_t(N1 + 1023) << 52);
  double S2 = detail::bitsToDouble(uint64_t(N2 + 1023) << 52);
  return ExpR * S1 * S2;
}

/// Branch-free natural logarithm for X > 0. Returns -inf at 0 and NaN for
/// negative inputs (matching libm).
inline double fastLog(double X) {
  // Decompose X = 2^e * m with m in [sqrt(1/2), sqrt(2)). Subnormals are
  // pre-scaled by 2^54 (exact); huge inputs skip the pre-scaling so it
  // cannot overflow. Both choices are branchless selects.
  bool Huge = X > 1e280;
  double Xs = X * (Huge ? 1.0 : 1.8014398509481984e16); // 2^54
  uint64_t Bits = detail::doubleToBits(Xs);
  int64_t RawExp = int64_t(Bits >> 52) & 0x7FF;
  // With the mantissa re-biased into [0.5, 1): x = 2^(RawExp-1022[-54])*M.
  double Ef = double(RawExp) - (Huge ? 1022.0 : 1076.0);
  uint64_t MantBits = (Bits & 0x000FFFFFFFFFFFFFull) | (uint64_t(1022) << 52);
  double M = detail::bitsToDouble(MantBits); // in [0.5, 1)
  double MLow = M < 7.07106781186547524401e-01 ? 1.0 : 0.0; // sqrt(0.5)
  M = M * (1.0 + MLow);
  double E = Ef - MLow;

  // log(m) with m in [sqrt(1/2), sqrt(2)): z = m - 1, Cephes rational
  // approximation log(1+z) = z - z^2/2 + z^3 * P(z)/Q(z).
  double Z = M - 1.0;
  // Coefficients in ascending degree (P5 is the leading coefficient).
  const double P0 = 7.70838733755885391666e+00;
  const double P1 = 1.79368678507819816313e+01;
  const double P2 = 1.44989225341610930846e+01;
  const double P3 = 4.70579119878881725854e+00;
  const double P4 = 4.97494994976747001425e-01;
  const double P5 = 1.01875663804580931796e-04;
  const double Q0 = 2.31251620126765340583e+01;
  const double Q1 = 7.11544750618563894466e+01;
  const double Q2 = 8.29875266912776603211e+01;
  const double Q3 = 4.52279145837532221105e+01;
  const double Q4 = 1.12873587189167450590e+01;
  double Z2 = Z * Z;
  double Pz = P0 + Z * (P1 + Z * (P2 + Z * (P3 + Z * (P4 + Z * P5))));
  double Qz = Q0 + Z * (Q1 + Z * (Q2 + Z * (Q3 + Z * (Q4 + Z))));
  double Y = Z2 * Z * (Pz / Qz);
  Y -= 0.5 * Z2;

  const double Ln2Hi = 6.93147180369123816490e-01;
  const double Ln2Lo = 1.90821492927058770002e-10;
  double Result = E * Ln2Lo + Y + Z + E * Ln2Hi;

  // Domain handling: X <= 0 or NaN.
  Result = X > 0.0 ? Result
                   : (X == 0.0 ? -HUGE_VAL
                               : std::numeric_limits<double>::quiet_NaN());
  return Result;
}

inline double fastExpm1(double X) {
  // For tiny |x| use the series to avoid cancellation; blend branchlessly.
  double Series = X * (1.0 + X * (0.5 + X * (1.0 / 6.0 + X / 24.0)));
  double Full = fastExp(X) - 1.0;
  return (X > -1e-4 && X < 1e-4) ? Series : Full;
}

inline double fastLog10(double X) {
  return fastLog(X) * 4.34294481903251827651e-01; // 1/ln(10)
}

/// pow for positive bases (exp(y*log(x))); matches libm on the special
/// cases pow(x,0)=1 and pow(0,y>0)=0. Negative bases yield NaN (ionic
/// models only exponentiate positive quantities; tests enforce this).
inline double fastPow(double X, double Y) {
  double R = fastExp(Y * fastLog(X));
  R = Y == 0.0 ? 1.0 : R;
  R = (X == 0.0 && Y > 0.0) ? 0.0 : R;
  return R;
}

inline double fastTanh(double X) {
  // tanh(x) = 1 - 2/(exp(2x)+1); saturates beyond |x| > 20. Tiny inputs
  // use the odd series to avoid cancellation (branchless select).
  double X2 = X * X;
  double Series = X * (1.0 - X2 * (1.0 / 3.0 - X2 * (2.0 / 15.0)));
  double Xc = X > 20.0 ? 20.0 : (X < -20.0 ? -20.0 : X);
  double E = fastExp(2.0 * Xc);
  double Full = 1.0 - 2.0 / (E + 1.0);
  return (X > -1e-3 && X < 1e-3) ? Series : Full;
}

inline double fastSinh(double X) {
  double X2 = X * X;
  double Series = X * (1.0 + X2 * (1.0 / 6.0 + X2 / 120.0));
  double E = fastExp(X);
  double Full = 0.5 * (E - 1.0 / E);
  return (X > -1e-3 && X < 1e-3) ? Series : Full;
}

inline double fastCosh(double X) {
  double E = fastExp(X);
  return 0.5 * (E + 1.0 / E);
}

namespace detail {

/// sin(r) for |r| <= pi/4 (Cephes polynomial).
inline double sinPoly(double R) {
  const double S1 = -1.66666666666666307295e-01;
  const double S2 = 8.33333333332211858878e-03;
  const double S3 = -1.98412698295895385996e-04;
  const double S4 = 2.75573136213857245213e-06;
  const double S5 = -2.50507477628578072866e-08;
  const double S6 = 1.58962301576546568060e-10;
  double R2 = R * R;
  return R + R * R2 *
                 (S1 + R2 * (S2 + R2 * (S3 + R2 * (S4 + R2 * (S5 + R2 * S6)))));
}

/// cos(r) for |r| <= pi/4.
inline double cosPoly(double R) {
  const double C1 = 4.16666666666665929218e-02;
  const double C2 = -1.38888888888730564116e-03;
  const double C3 = 2.48015872894767294178e-05;
  const double C4 = -2.75573143513906633035e-07;
  const double C5 = 2.08757232129817482790e-09;
  const double C6 = -1.13596475577881948265e-11;
  double R2 = R * R;
  return 1.0 - 0.5 * R2 +
         R2 * R2 *
             (C1 + R2 * (C2 + R2 * (C3 + R2 * (C4 + R2 * (C5 + R2 * C6)))));
}

/// Shared range reduction: returns quadrant and remainder r in [-pi/4,
/// pi/4] for x (accurate for |x| < ~1e8, ample for model inputs).
inline void trigReduce(double X, int64_t &Quadrant, double &R) {
  const double TwoOverPi = 6.36619772367581343076e-01;
  const double PiOver2Hi = 1.57079632679489655800e+00;
  const double PiOver2Mid = 6.12323399573676603587e-17;
  const double PiOver2Lo = -1.4973849048591698329435e-33;
  double Nf = std::nearbyint(X * TwoOverPi);
  Quadrant = int64_t(Nf) & 3;
  R = X - Nf * PiOver2Hi;
  R -= Nf * PiOver2Mid;
  R -= Nf * PiOver2Lo;
}

} // namespace detail

inline double fastSin(double X) {
  int64_t Q;
  double R;
  detail::trigReduce(X, Q, R);
  double S = detail::sinPoly(R);
  double C = detail::cosPoly(R);
  // Quadrant selection, branch-free over small integer compares.
  double Out = Q == 0 ? S : (Q == 1 ? C : (Q == 2 ? -S : -C));
  return Out;
}

inline double fastCos(double X) {
  int64_t Q;
  double R;
  detail::trigReduce(X, Q, R);
  double S = detail::sinPoly(R);
  double C = detail::cosPoly(R);
  double Out = Q == 0 ? C : (Q == 1 ? -S : (Q == 2 ? -C : S));
  return Out;
}

inline double fastTan(double X) { return fastSin(X) / fastCos(X); }

inline double fastAtan(double X) {
  // Cephes-style three-way reduction onto |z| <= 0.66, written with
  // selects so the compiler can if-convert:
  //   |x| > tan(3pi/8): atan = pi/2 - atan(1/|x|)
  //   |x| > 0.66      : atan = pi/4 + atan((|x|-1)/(|x|+1))
  const double Tan3PiOver8 = 2.41421356237309504880;
  const double PiOver2 = 1.57079632679489661923;
  const double PiOver4 = 0.78539816339744830962;
  double Ax = std::fabs(X);
  bool Big = Ax > Tan3PiOver8;
  bool Mid = Ax > 0.66;
  double Z = Big ? -1.0 / Ax : (Mid ? (Ax - 1.0) / (Ax + 1.0) : Ax);
  double Offset = Big ? PiOver2 : (Mid ? PiOver4 : 0.0);

  // Rational minimax for atan(z), |z| <= 0.66 (coefficients ascending;
  // P0/Q0 are the constant terms).
  const double P0 = -6.485021904942025371773e+01;
  const double P1 = -1.228866684490136173410e+02;
  const double P2 = -7.500855792314704667340e+01;
  const double P3 = -1.615753718733365076637e+01;
  const double P4 = -8.750608600031904122785e-01;
  const double Q0 = 1.945506571482613964425e+02;
  const double Q1 = 4.853903996359136964868e+02;
  const double Q2 = 4.328810604912902668951e+02;
  const double Q3 = 1.650270098316988542046e+02;
  const double Q4 = 2.485846490142306297962e+01;
  double Z2 = Z * Z;
  double Num = P0 + Z2 * (P1 + Z2 * (P2 + Z2 * (P3 + Z2 * P4)));
  double Den = Q0 + Z2 * (Q1 + Z2 * (Q2 + Z2 * (Q3 + Z2 * (Q4 + Z2))));
  double At = Z + Z * Z2 * (Num / Den);
  double Out = Offset + At;
  return X < 0 ? -Out : Out;
}

inline double fastAsin(double X) {
  // asin(x) = atan(x / sqrt(1 - x^2)); endpoints saturate to +-pi/2.
  double D = 1.0 - X * X;
  D = D < 0.0 ? 0.0 : D;
  double S = std::sqrt(D);
  const double PiOver2 = 1.57079632679489661923;
  double R = S > 0.0 ? fastAtan(X / S) : (X > 0 ? PiOver2 : -PiOver2);
  return R;
}

inline double fastAcos(double X) {
  const double PiOver2 = 1.57079632679489661923;
  return PiOver2 - fastAsin(X);
}

//===----------------------------------------------------------------------===//
// Kernel arithmetic shared by the VM and native kernels. This header is
// embedded into every emitted kernel TU, so these are the exact functions
// the VM runs.
//===----------------------------------------------------------------------===//

/// The math calls of bytecode lane expressions (exec/BcOps.def's M::),
/// one flavour per Fast: the kernels above, or libm.
template <bool Fast> struct MathOps {
  static double exp(double X) { return Fast ? fastExp(X) : std::exp(X); }
  static double expm1(double X) {
    return Fast ? fastExpm1(X) : std::expm1(X);
  }
  static double log(double X) { return Fast ? fastLog(X) : std::log(X); }
  static double log10(double X) {
    return Fast ? fastLog10(X) : std::log10(X);
  }
  static double pow(double X, double Y) {
    return Fast ? fastPow(X, Y) : std::pow(X, Y);
  }
  static double sin(double X) { return Fast ? fastSin(X) : std::sin(X); }
  static double cos(double X) { return Fast ? fastCos(X) : std::cos(X); }
  static double tan(double X) { return Fast ? fastTan(X) : std::tan(X); }
  static double tanh(double X) { return Fast ? fastTanh(X) : std::tanh(X); }
  static double sinh(double X) { return Fast ? fastSinh(X) : std::sinh(X); }
  static double cosh(double X) { return Fast ? fastCosh(X) : std::cosh(X); }
  static double atan(double X) { return Fast ? fastAtan(X) : std::atan(X); }
  static double asin(double X) { return Fast ? fastAsin(X) : std::asin(X); }
  static double acos(double X) { return Fast ? fastAcos(X) : std::acos(X); }
};

/// Linear LUT interpolation between the samples \p Lo and \p Hi of one
/// column at fraction \p Frac. T is double, or a vector of doubles where
/// native kernels blend a whole row chunk at once.
template <class T>
[[gnu::always_inline]] inline T lutBlend(T Lo, T Hi, T Frac) {
  return Lo + Frac * (Hi - Lo);
}

/// Cubic LUT interpolation: the four-point Lagrange polynomial through
/// samples P0..P3 at positions -1, 0, 1, 2, evaluated at \p T in [0, 1].
/// Both helpers are forced inline so the VM's lane loops stay vectorizable.
[[gnu::always_inline]] inline double lutCubic(double P0, double P1, double P2,
                                              double P3, double T) {
  double W0 = -T * (T - 1.0) * (T - 2.0) * (1.0 / 6.0);
  double W1 = (T + 1.0) * (T - 1.0) * (T - 2.0) * 0.5;
  double W2 = -(T + 1.0) * T * (T - 2.0) * 0.5;
  double W3 = (T + 1.0) * T * (T - 1.0) * (1.0 / 6.0);
  return W0 * P0 + W1 * P1 + W2 * P2 + W3 * P3;
}

/// One row of the explicit 3-point diffusion stencil, branch-free so the
/// host compiler vectorizes it: Out[i] = In[i] + K*(In[i-1] - 2 In[i] +
/// In[i+1]) for i in [Begin, End). Callers handle the boundary nodes;
/// In and Out must not alias (the tissue layer reads the barrier-published
/// snapshot and writes Vm in place).
inline void stencil3(double *__restrict__ Out, const double *__restrict__ In,
                     double K, int64_t Begin, int64_t End) {
  for (int64_t I = Begin; I < End; ++I)
    Out[I] = In[I] + K * (In[I - 1] - 2.0 * In[I] + In[I + 1]);
}

/// One interior row of the 5-point stencil: Row/Up/Dn are the snapshot
/// rows at y, y-1 and y+1 (already boundary-clamped by the caller), and
/// Out[x] = Row[x] + KX*(Row[x-1] - 2 Row[x] + Row[x+1])
///               + KY*(Up[x] - 2 Row[x] + Dn[x]) for x in [Begin, End).
inline void stencil5Row(double *__restrict__ Out,
                        const double *__restrict__ Row,
                        const double *__restrict__ Up,
                        const double *__restrict__ Dn, double KX, double KY,
                        int64_t Begin, int64_t End) {
  for (int64_t X = Begin; X < End; ++X)
    Out[X] = Row[X] + KX * (Row[X - 1] - 2.0 * Row[X] + Row[X + 1]) +
             KY * (Up[X] - 2.0 * Row[X] + Dn[X]);
}

/// Approximate per-call floating point operation counts used by the
/// roofline instrumentation (Sec. 4.5): polynomial kernel cost in flops.
struct FlopCost {
  static constexpr double Exp = 22;
  static constexpr double Expm1 = 24;
  static constexpr double Log = 30;
  static constexpr double Log10 = 31;
  static constexpr double Pow = 55;
  static constexpr double Sqrt = 1; // hardware instruction
  static constexpr double Trig = 28;
  static constexpr double Tanh = 27;
  static constexpr double SinhCosh = 26;
  static constexpr double ATan = 26;
  static constexpr double ASinCos = 30;
  /// Per-node cost of the diffusion stencils (roofline second regime).
  static constexpr double Stencil3 = 5;
  static constexpr double Stencil5 = 10;
};

} // namespace vecmath
} // namespace limpet

#endif // LIMPET_RUNTIME_VECMATH_H
