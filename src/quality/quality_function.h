// Concave quality functions for "good enough" services.
//
// A quality function f maps the processed volume of a job (in processing
// units) to a perceived quality in [0, 1].  The paper's Eq. (1) uses the
// saturating exponential
//
//     f(x) = (1 - e^{-c x}) / (1 - e^{-c x_max}),
//
// whose concavity captures the law of diminishing returns: the head of a job
// contributes more quality per unit of work than its tail.  The interface
// also exposes the derivative and inverse, which the LF job cutter and the
// Quality-OPT allocator rely on.  Two additional concave families
// (linear and power-law) support the sensitivity study around Fig. 9.
#pragma once

#include <memory>
#include <string>

namespace ge::quality {

class QualityFunction {
 public:
  virtual ~QualityFunction() = default;

  // f(x); x is clamped to [0, xmax].  Monotone non-decreasing, f(0) = 0,
  // f(xmax) = 1.
  virtual double value(double x) const = 0;

  // f'(x) for x in [0, xmax); non-increasing because f is concave.
  virtual double derivative(double x) const = 0;

  // Smallest x with f(x) >= q, for q in [0, 1].
  virtual double inverse(double q) const = 0;

  // Smallest x with f'(x) <= slope (the "marginal demand" at a given
  // marginal-quality threshold).  Returns 0 when slope >= f'(0) and xmax
  // when slope <= f'(xmax).  Used by the Quality-OPT water-filling step.
  virtual double inverse_derivative(double slope) const;

  // Upper bound on processing demand; f saturates at 1 there.
  virtual double xmax() const = 0;

  virtual std::string name() const = 0;
};

// Eq. (1) of the paper: f(x) = (1 - e^{-cx}) / (1 - e^{-c xmax}).
class ExponentialQuality final : public QualityFunction {
 public:
  ExponentialQuality(double c, double xmax);

  double value(double x) const override;
  double derivative(double x) const override;
  double inverse(double q) const override;
  double inverse_derivative(double slope) const override;
  double xmax() const override { return xmax_; }
  std::string name() const override;

  double concavity() const noexcept { return c_; }

 private:
  double c_;
  double xmax_;
  double norm_;  // 1 - e^{-c xmax}
  // f'(0) and f'(xmax), the clamps of inverse_derivative: evaluated once at
  // construction with the same expression derivative() uses.
  double slope_at_zero_;
  double slope_at_xmax_;
};

// f(x) = x / xmax.  Degenerate (not strictly concave) boundary case: with a
// linear quality function, partial processing carries no diminishing-returns
// advantage, so GE's cutting gains vanish -- useful as a control in tests.
class LinearQuality final : public QualityFunction {
 public:
  explicit LinearQuality(double xmax);

  double value(double x) const override;
  double derivative(double x) const override;
  double inverse(double q) const override;
  double xmax() const override { return xmax_; }
  std::string name() const override { return "linear"; }

 private:
  double xmax_;
};

// f(x) = (x / xmax)^gamma with gamma in (0, 1); strictly concave.
class PowerLawQuality final : public QualityFunction {
 public:
  PowerLawQuality(double gamma, double xmax);

  double value(double x) const override;
  double derivative(double x) const override;
  double inverse(double q) const override;
  double xmax() const override { return xmax_; }
  std::string name() const override;

 private:
  double gamma_;
  double xmax_;
  // gamma is fixed per run, so the derived exponents and scale factors are
  // hoisted to construction: the same expressions the per-call code used to
  // evaluate, computed once (bit-identical results, fewer divisions on the
  // pow-heavy paths).
  double inv_gamma_;        // 1 / gamma
  double gamma_minus_one_;  // gamma - 1 (derivative exponent)
  double slope_scale_;      // gamma / xmax (derivative prefactor)
};

}  // namespace ge::quality
