#include "workload/workload.h"

#include <algorithm>
#include <utility>

#include "util/macros.h"

namespace ccsim::workload {

WorkloadGenerator::WorkloadGenerator(std::vector<config::MixEntry> mix,
                                     const db::DatabaseLayout* layout,
                                     sim::Pcg32 object_rng,
                                     sim::Pcg32 delay_rng)
    : mix_(std::move(mix)), layout_(layout), object_rng_(object_rng),
      delay_rng_(delay_rng) {
  CCSIM_CHECK(!mix_.empty());
  for (const config::MixEntry& entry : mix_) {
    total_weight_ += entry.weight;
  }
}

db::ObjectRef WorkloadGenerator::PickObject() {
  if (!inter_xact_set_.empty() &&
      object_rng_.Bernoulli(params_().inter_xact_loc)) {
    const std::size_t index = static_cast<std::size_t>(object_rng_.UniformInt(
        0, static_cast<std::int64_t>(inter_xact_set_.size()) - 1));
    return inter_xact_set_[index];
  }
  return layout_->RandomObject(object_rng_);
}

void WorkloadGenerator::NoteRead(const db::ObjectRef& object) {
  if (params_().inter_xact_set_size <= 0) {
    return;
  }
  auto it = std::find(inter_xact_set_.begin(), inter_xact_set_.end(), object);
  if (it != inter_xact_set_.end()) {
    inter_xact_set_.erase(it);
  }
  inter_xact_set_.push_front(object);
  while (static_cast<int>(inter_xact_set_.size()) >
         params_().inter_xact_set_size) {
    inter_xact_set_.pop_back();
  }
}

void WorkloadGenerator::NextTransaction(TransactionSpec* spec) {
  // Draw the transaction's type by weight (single-type mixes skip the
  // RNG so single-type streams stay identical to the pre-mix behaviour).
  if (mix_.size() > 1) {
    double draw = object_rng_.NextDouble() * total_weight_;
    current_type_ = mix_.size() - 1;
    for (std::size_t i = 0; i < mix_.size(); ++i) {
      draw -= mix_[i].weight;
      if (draw < 0) {
        current_type_ = i;
        break;
      }
    }
  }
  const int size = static_cast<int>(object_rng_.UniformInt(
      params_().min_xact_size, params_().max_xact_size));
  spec->steps.clear();
  // Room for the type's largest transaction, so a refilled spec grows once.
  spec->steps.reserve(static_cast<std::size_t>(params_().max_xact_size));
  for (int i = 0; i < size; ++i) {
    Step step;
    step.object = PickObject();
    NoteRead(step.object);
    step.read_pages = layout_->PagesOf(step.object);
    for (db::PageId page : step.read_pages) {
      if (object_rng_.Bernoulli(params_().prob_write)) {
        step.write_pages.push_back(page);
      }
    }
    spec->steps.push_back(std::move(step));
  }
}

}  // namespace ccsim::workload
