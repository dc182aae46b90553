// Discrete DVFS operating points (Sec. IV-A-5, Fig. 12).
//
// Real cores expose a finite ladder of frequency steps.  DiscreteSpeedTable
// holds the ladder (in processing units per second) and answers ceil/floor
// queries; the scheduler's rectification rule rounds each planned speed up
// to the next step when the power cap allows it and down otherwise.
#pragma once

#include <vector>

namespace ge::power {

class DiscreteSpeedTable {
 public:
  // Levels must be positive; they are sorted and deduplicated.  A speed of
  // zero (idle) is always permitted implicitly.
  explicit DiscreteSpeedTable(std::vector<double> levels_units);

  // Uniform ladder: step_ghz, 2*step_ghz, ..., max_ghz (inclusive).
  static DiscreteSpeedTable uniform_ghz(double step_ghz, double max_ghz,
                                        double units_per_ghz = 1000.0);

  // Smallest level >= speed; returns max level if speed exceeds the ladder.
  double ceil(double speed_units) const;

  // Largest level <= speed; returns 0.0 (idle) if speed is below the ladder.
  double floor(double speed_units) const;

  // Nearest level not exceeding... exact membership check with tolerance.
  bool is_level(double speed_units, double tol = 1e-6) const;

  const std::vector<double>& levels() const noexcept { return levels_; }

 private:
  std::vector<double> levels_;  // ascending, positive
};

}  // namespace ge::power
