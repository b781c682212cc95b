#include "nn/mlp.hpp"

#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/fused.hpp"

namespace fedra {

namespace {

// Pair-fusion probe: layers_[i] = Dense and layers_[i+1] = Tanh (the
// output-derivative activation; see nn/fused.hpp for why ReLU stays
// layer-by-layer). Returns both layers so a fused forward can bind its
// output for a later backward.
struct FusablePair {
  Dense* dense = nullptr;
  Tanh* tanh = nullptr;
};

bool probe_fusable(Layer& a, Layer& b, FusablePair& pair) {
  pair.dense = dynamic_cast<Dense*>(&a);
  if (pair.dense == nullptr) return false;
  pair.tanh = dynamic_cast<Tanh*>(&b);
  return pair.tanh != nullptr;
}

}  // namespace

void Sequential::add(LayerPtr layer) {
  FEDRA_EXPECTS(layer != nullptr);
  layers_.push_back(std::move(layer));
}

const Matrix& Sequential::forward_cached(const Matrix& input, Workspace& ws) {
  const Matrix* cur = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    FusablePair pair;
    if (i + 1 < layers_.size() &&
        probe_fusable(*layers_[i], *layers_[i + 1], pair)) {
      // Fused dense+bias+activation: slot(i) receives the bias-free GEMM
      // (nothing reads it again — the activation derivative comes from the
      // OUTPUT), slot(i+1) = act(pre + b) in one sweep. Bit-identical to
      // the layer-by-layer path.
      Matrix& pre = ws.slot(i);
      Matrix& out = ws.slot(i + 1);
      pair.dense->forward_gemm_into(*cur, pre);
      bias_act_into(pre, pair.dense->bias(), out);
      pair.tanh->bind_output(out);
      cur = &out;
      ++i;
      continue;
    }
    Matrix& out = ws.slot(i);
    layers_[i]->forward_into(*cur, out);
    cur = &out;
  }
  return *cur;
}

void Sequential::backward_cached(const Matrix& grad_output, Workspace& ws) {
  const Matrix* cur = &grad_output;
  std::size_t pp = 0;
  for (std::size_t k = layers_.size(); k-- > 0;) {
    FusablePair pair;
    if (k >= 1 && probe_fusable(*layers_[k - 1], *layers_[k], pair)) {
      // Fused activation-derivative + bias-gradient column sum in one
      // sweep (y lives in slot(k) under the workspace contract), then the
      // two dense GEMMs. Buffer parity matches the unfused pair exactly:
      // dpre lands where the activation would have written, grad_in where
      // the dense would have.
      Matrix& dpre = ws.grad(pp);
      act_backward_colsum_into(*cur, ws.slot(k), dpre,
                               pair.dense->bias_grad_scratch());
      pair.dense->accumulate_bias_grad();
      pair.dense->accumulate_weight_grad(dpre);
      if (k == 1) return;
      Matrix& gin = ws.grad(pp ^ 1);
      pair.dense->input_grad_into(dpre, gin);
      cur = &gin;  // pp flips twice across the pair — net unchanged
      --k;
      continue;
    }
    if (k == 0) {
      if (auto* dense = dynamic_cast<Dense*>(layers_[0].get())) {
        dense->backward_params(*cur);
        return;
      }
    }
    Matrix& gin = ws.grad(pp);
    layers_[k]->backward_into(*cur, gin);  // reads *cur, writes the other
    cur = &gin;
    pp ^= 1;
  }
}

std::vector<Matrix*> Sequential::params() {
  std::vector<Matrix*> ps;
  for (auto& l : layers_) {
    for (Matrix* p : l->params()) ps.push_back(p);
  }
  return ps;
}

std::vector<Matrix*> Sequential::grads() {
  std::vector<Matrix*> gs;
  for (auto& l : layers_) {
    for (Matrix* g : l->grads()) gs.push_back(g);
  }
  return gs;
}

Layer& Sequential::layer(std::size_t i) {
  FEDRA_EXPECTS(i < layers_.size());
  return *layers_[i];
}

std::size_t Sequential::num_params() {
  std::size_t n = 0;
  for (Matrix* p : params()) n += p->size();
  return n;
}

void Sequential::copy_params_from(Sequential& other) {
  auto dst = params();
  auto src = other.params();
  FEDRA_EXPECTS(dst.size() == src.size());
  for (std::size_t i = 0; i < dst.size(); ++i) {
    FEDRA_EXPECTS(dst[i]->same_shape(*src[i]));
    *dst[i] = *src[i];
  }
}

std::vector<Matrix> Sequential::param_values() {
  std::vector<Matrix> values;
  for (Matrix* p : params()) values.push_back(*p);
  return values;
}

void Sequential::set_param_values(const std::vector<Matrix>& values) {
  auto ps = params();
  FEDRA_EXPECTS(ps.size() == values.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    FEDRA_EXPECTS(ps[i]->same_shape(values[i]));
    *ps[i] = values[i];
  }
}

namespace {

LayerPtr make_activation(Activation a) {
  switch (a) {
    case Activation::ReLU:
      return std::make_unique<ReLU>();
    case Activation::Tanh:
      return std::make_unique<Tanh>();
    case Activation::None:
      return nullptr;
  }
  return nullptr;
}

}  // namespace

Mlp::Mlp(const std::vector<std::size_t>& sizes, Activation hidden,
         Rng& rng) {
  FEDRA_EXPECTS(sizes.size() >= 2);
  in_features_ = sizes.front();
  out_features_ = sizes.back();
  const Init hidden_init =
      hidden == Activation::ReLU ? Init::He : Init::Xavier;
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    const bool last = (i + 2 == sizes.size());
    add(std::make_unique<Dense>(sizes[i], sizes[i + 1], rng,
                                last ? Init::Xavier : hidden_init));
    if (last) break;
    LayerPtr act = make_activation(hidden);
    if (act) add(std::move(act));
  }
}

}  // namespace fedra
