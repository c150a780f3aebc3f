/**
 * @file
 * The op-by-op graph builder: the public frontier for user workloads.
 *
 * Builder generalizes the layer-level CnnBuilder (nn/builder.hh) into
 * a popart-BuilderImpl-style API: every method takes explicit
 * TensorRef operands, infers and validates the output shape, appends
 * the lowered cost-model ops to the Graph, and records a tape entry
 * so trainingStep() can later emit the TensorFlow-style backward pass
 * plus a pluggable optimizer (Adam, or plain SGD for GradPIM-style
 * optimizer-heavy mixes). finishForward() instead closes the graph as
 * an inference workload (forward ops only, in the spirit of the
 * PIM-inference line of work in PAPERS.md).
 *
 * Determinism contract: for the linear single-activation chains
 * CnnBuilder builds, Builder emits byte-for-byte the same op
 * sequence -- same labels, same costs, same dependence lists -- so
 * CnnBuilder now delegates here and every built-in model keeps its
 * Graph::signature() and its figure-bench output.
 *
 * Shape errors (rank mismatches, incompatible matmul dims, refs from
 * a different builder) abort through sim/logging's fatal_if with a
 * named-op diagnostic; tests cover them as death tests. The JSON
 * graph loader (nn/graph_io.hh) never aborts -- it throws typed
 * errors -- because its inputs are user files, not program bugs.
 */

#ifndef HPIM_NN_GRAPH_BUILDER_HH
#define HPIM_NN_GRAPH_BUILDER_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/graph.hh"
#include "nn/tensor_shape.hh"

namespace hpim::nn {

/** Optimizer emitted by Builder::trainingStep for each parameter. */
enum class Optimizer
{
    Adam, ///< ApplyAdam per parameter tensor (the paper's setup)
    Sgd,  ///< ApplySgd per parameter tensor (optimizer-light mix)
};

/**
 * A value flowing between Builder ops. Refs are cheap handles; the
 * Builder owns the shape/producer tables they index into. A
 * default-constructed ref is invalid and any use of it (or of a ref
 * minted by a *different* Builder) is a fatal error.
 */
struct TensorRef
{
    std::uint32_t tid = ~std::uint32_t(0); ///< Builder tensor index
    std::uint64_t owner = 0;               ///< minting Builder's id

    bool valid() const { return tid != ~std::uint32_t(0); }
};

/** Op-by-op DAG builder; see file comment. */
class Builder
{
  public:
    explicit Builder(std::string name);

    // ------------------------------------------------------- sources

    /** Declare a graph input (no op emitted). */
    TensorRef input(TensorShape shape);

    // -------------------------------------------------- conv layers

    /** Conv + BiasAdd (+ optional Relu) on an NHWC activation. */
    TensorRef conv2d(TensorRef x, std::int64_t k, std::int64_t c_out,
                     std::int64_t stride, bool relu = true);

    /** Transposed convolution (lowered to Conv2DBackpropInput,
     *  as TensorFlow does) + BiasAdd (+ optional Relu). */
    TensorRef deconv2d(TensorRef x, std::int64_t k, std::int64_t c_out,
                       std::int64_t up, bool relu = true);

    /** Max pooling, square window k, stride s. */
    TensorRef maxPool(TensorRef x, std::int64_t k, std::int64_t stride);

    /** Max pooling with a non-square window and per-axis strides. */
    TensorRef maxPool(TensorRef x, std::int64_t kh, std::int64_t kw,
                      std::int64_t sh, std::int64_t sw);

    /** Average pooling, square window k, stride s. */
    TensorRef avgPool(TensorRef x, std::int64_t k, std::int64_t stride);

    /** Average pooling with a non-square window and strides. */
    TensorRef avgPool(TensorRef x, std::int64_t kh, std::int64_t kw,
                      std::int64_t sh, std::int64_t sw);

    // ----------------------------------------- dense / matmul layers

    /** Fully connected: MatMul + BiasAdd (+ optional Relu). Rank-2
     *  input required; use flatten() first for NHWC activations. */
    TensorRef dense(TensorRef x, std::int64_t units, bool relu = true);

    /** Activation x activation matmul ([m,k] x [k,n]), e.g. the
     *  QK^T / attention-weighted-value products of an attention
     *  block. Both operands get gradients in trainingStep(). */
    TensorRef matmul(TensorRef a, TensorRef b);

    // ------------------------------------------- normalization, etc.

    /** Batch normalization over the activation. */
    TensorRef batchNorm(TensorRef x);

    /** Layer normalization (transformer blocks). Same cost family as
     *  BatchNorm -- per-element mean/var/scale work -- but labelled
     *  as LayerNorm and valid on rank-2 activations. */
    TensorRef layerNorm(TensorRef x);

    /** Dropout. */
    TensorRef dropout(TensorRef x);

    /** Collapse to [N, elems/N]. */
    TensorRef flatten(TensorRef x);

    /** Transpose a rank-2 activation (data movement). */
    TensorRef transpose(TensorRef x);

    /** Slice touching the whole activation (input pipelines). */
    TensorRef slice(TensorRef x);

    /** Concat (rough model: touches the activation once). */
    TensorRef concat(TensorRef x);

    // ------------------------------------------------ elementwise ops

    /** Elementwise add of two same-shaped tensors (residual links). */
    TensorRef add(TensorRef a, TensorRef b);

    /** Elementwise mul of two same-shaped tensors (gating). */
    TensorRef mul(TensorRef a, TensorRef b);

    /** Unary elementwise Mul against an implicit same-shaped tensor
     *  (GAN loss plumbing; CnnBuilder::mul compatibility). */
    TensorRef mulChain(TensorRef x);

    /** Standalone activations. */
    TensorRef relu(TensorRef x);
    TensorRef tanh(TensorRef x);
    TensorRef sigmoid(TensorRef x);

    /** Softmax over the last dimension of a rank-2 activation
     *  (attention weights; not the training-loss softmax). */
    TensorRef softmax(TensorRef x);

    // ------------------------------------------------- escape hatch

    /**
     * Append a raw lowered op (no tape entry, no autodiff). This is
     * how recurrent built-ins (LSTM, Word2vec) express their custom
     * backward structure through the Builder while keeping their
     * exact historical op sequence.
     */
    OpId rawOp(OpType type, std::string_view label, CostStructure cost,
               FixedParallelism parallelism,
               std::initializer_list<OpId> inputs = {});

    // ------------------------------------------------------ queries

    /** @return the shape of @p ref (fatal on a foreign/invalid ref). */
    const TensorShape &shape(TensorRef ref) const;

    /** @return the op producing @p ref (invalidOp for inputs). */
    OpId producer(TensorRef ref) const;

    /** @return the graph built so far (inspection; keeps building). */
    const Graph &graph() const { return _graph; }

    // ----------------------------------------------------- finishing

    /**
     * Close the graph as one training step: softmax loss over
     * @p logits, reverse-mode backward pass over every tape entry on
     * the loss path, and one optimizer op per parameter tensor.
     * @param extra_loss_muls small Mul ops around the loss (GAN-style
     *        training; see CnnBuilder::finish)
     */
    Graph trainingStep(TensorRef logits,
                       Optimizer optimizer = Optimizer::Adam,
                       std::size_t extra_loss_muls = 0);

    /** Close the graph forward-only (inference workload). */
    Graph finishForward();

  private:
    enum class TapeKind
    {
        Conv, Deconv, MaxPool, AvgPool, BatchNorm, LayerNorm, Dropout,
        Dense, MatMul2, Add2, Mul2, MulChain, Slice, Concat, Flatten,
        Transpose, Softmax, Relu, Tanh, Sigmoid
    };

    struct TensorEntry
    {
        OpId op = invalidOp;  ///< producing op; invalidOp for inputs
        TensorShape shape;
        std::int32_t record = -1; ///< tape index; -1 for inputs
    };

    struct TapeRecord
    {
        TapeKind kind;
        std::uint32_t in0 = ~std::uint32_t(0); ///< primary input tid
        std::uint32_t in1 = ~std::uint32_t(0); ///< second input tid
        std::uint32_t out = ~std::uint32_t(0); ///< output tid
        TensorShape inShape;
        TensorShape outShape;
        std::int64_t kH = 0, kW = 0;  ///< kernel/window size
        std::int64_t sH = 1, sW = 1;  ///< strides
        std::int64_t cOut = 0;        ///< conv channels / dense units
        bool relu = false;
        OpId fwdOp = invalidOp; ///< main forward op
        OpId actOp = invalidOp; ///< fused relu op if any
        std::int64_t params = 0;
        std::string label;
    };

    std::string layerLabel(const char *base);
    const TensorEntry &entry(TensorRef ref) const;
    TensorRef newTensor(OpId op, TensorShape shape,
                        std::int32_t record);
    /** Append @p rec to the tape; its output @p out comes from @p op. */
    TensorRef record(TapeRecord &rec, OpId op, const TensorShape &out);
    /** @return the producer of @p ref, or nothing for an input. */
    std::span<const OpId> depsOf(TensorRef ref) const;
    /** @return the producers of @p a then @p b, stored in @p buf. */
    std::span<const OpId> depsOf(TensorRef a, TensorRef b,
                                 OpId (&buf)[2]) const;
    /** @return @p parts concatenated in the reused label buffer
     *  (valid until the next call). */
    template <typename... Parts>
    std::string_view opLabel(const Parts &...parts);
    TensorRef pool(TensorRef x, TapeKind kind, std::int64_t kh,
                   std::int64_t kw, std::int64_t sh, std::int64_t sw);
    TensorRef activation(TensorRef x, TapeKind kind, OpType type,
                         const char *base);
    TensorRef norm(TensorRef x, TapeKind kind, const char *base,
                   const char *op_suffix);

    Graph _graph;
    std::uint64_t _id; ///< distinguishes refs across Builder instances
    std::vector<TensorEntry> _tensors;
    std::vector<TapeRecord> _tape;
    std::string _label; ///< op labels are composed here, not in temporaries
    std::size_t _conv_index = 0;
    std::size_t _fc_index = 0;
    std::size_t _misc_index = 0;
    bool _finished = false;
};

} // namespace hpim::nn

#endif // HPIM_NN_GRAPH_BUILDER_HH
