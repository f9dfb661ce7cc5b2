#include "sgxsim/cost_model.hpp"

namespace ea::sgxsim {

CostModel& cost_model() {
  static CostModel model;
  return model;
}

ScopedCostModel::ScopedCostModel() : saved_(cost_model()) {}

ScopedCostModel::~ScopedCostModel() { cost_model() = saved_; }

}  // namespace ea::sgxsim
