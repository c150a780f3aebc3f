#include "nn/graph_builder.hh"

#include <algorithm>
#include <atomic>

#include "sim/logging.hh"

namespace hpim::nn {

namespace {

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

std::uint64_t
nextBuilderId()
{
    static std::atomic<std::uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Builder::Builder(std::string name)
    : _graph(std::move(name)), _id(nextBuilderId())
{
}

std::string
Builder::layerLabel(const char *base)
{
    return std::string(base) + "_" + std::to_string(++_misc_index);
}

const Builder::TensorEntry &
Builder::entry(TensorRef ref) const
{
    fatal_if(!ref.valid(),
             "use of an invalid (default-constructed) TensorRef");
    fatal_if(ref.owner != _id,
             "TensorRef belongs to a different Builder");
    fatal_if(ref.tid >= _tensors.size(), "TensorRef out of range");
    return _tensors[ref.tid];
}

TensorRef
Builder::newTensor(OpId op, TensorShape shape, std::int32_t record)
{
    fatal_if(_finished,
             "Builder already finished; no further ops may be added");
    TensorEntry e;
    e.op = op;
    e.shape = std::move(shape);
    e.record = record;
    _tensors.push_back(std::move(e));
    TensorRef ref;
    ref.tid = static_cast<std::uint32_t>(_tensors.size() - 1);
    ref.owner = _id;
    return ref;
}

TensorRef
Builder::record(TapeRecord &rec, OpId op, const TensorShape &out)
{
    rec.outShape = out;
    TensorRef result =
        newTensor(op, out, static_cast<std::int32_t>(_tape.size()));
    rec.out = result.tid;
    _tape.push_back(std::move(rec));
    return result;
}

std::span<const OpId>
Builder::depsOf(TensorRef ref) const
{
    const OpId &op = entry(ref).op;
    return {&op, op == invalidOp ? 0u : 1u};
}

std::span<const OpId>
Builder::depsOf(TensorRef a, TensorRef b, OpId (&buf)[2]) const
{
    std::size_t n = 0;
    for (TensorRef ref : {a, b})
        for (OpId d : depsOf(ref))
            buf[n++] = d;
    return {buf, n};
}

template <typename... Parts>
std::string_view
Builder::opLabel(const Parts &...parts)
{
    _label.clear();
    (_label.append(parts), ...);
    return _label;
}

TensorRef
Builder::input(TensorShape shape)
{
    fatal_if(shape.rank() == 0, "graph inputs need a non-empty shape");
    return newTensor(invalidOp, std::move(shape), -1);
}

OpId
Builder::rawOp(OpType type, std::string_view label, CostStructure cost,
               FixedParallelism parallelism,
               std::initializer_list<OpId> inputs)
{
    fatal_if(_finished,
             "Builder already finished; no further ops may be added");
    return _graph.add(type, label, cost, parallelism, inputs);
}

const TensorShape &
Builder::shape(TensorRef ref) const
{
    return entry(ref).shape;
}

OpId
Builder::producer(TensorRef ref) const
{
    return entry(ref).op;
}

// ------------------------------------------------------- conv layers

TensorRef
Builder::conv2d(TensorRef x, std::int64_t k, std::int64_t c_out,
                std::int64_t stride, bool relu)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() != 4, "conv needs an NHWC activation");
    fatal_if(k < 1 || c_out < 1 || stride < 1,
             "conv needs k >= 1, c_out >= 1, stride >= 1 (got k=", k,
             " c_out=", c_out, " stride=", stride, ")");
    TapeRecord rec;
    rec.kind = TapeKind::Conv;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.kH = rec.kW = k;
    rec.sH = rec.sW = stride;
    rec.cOut = c_out;
    rec.relu = relu;
    rec.label = "conv" + std::to_string(++_conv_index);
    rec.params = k * k * in.dim(3) * c_out + c_out;

    std::span<const OpId> deps = depsOf(x);
    CostStructure cost = conv2dCost(in, k, c_out, stride);
    std::int64_t reduction = k * k; // one spatial tap tree, paper-style
    TensorShape out{in.dim(0), ceilDiv(in.dim(1), stride),
                    ceilDiv(in.dim(2), stride), c_out};
    double lanes = static_cast<double>(out.elems());
    OpId conv_id = _graph.add(
        OpType::Conv2D, opLabel(rec.label, "/Conv2D"), cost,
        fixedParallelism(OpType::Conv2D, reduction, lanes), deps);

    OpId bias_id = _graph.add(
        OpType::BiasAdd, opLabel(rec.label, "/BiasAdd"),
        biasAddCost(out, c_out),
        fixedParallelism(OpType::BiasAdd, 1, double(out.elems())),
        {conv_id});

    rec.fwdOp = bias_id;
    OpId act = bias_id;
    if (relu) {
        act = _graph.add(OpType::Relu, opLabel(rec.label, "/Relu"),
                         activationCost(OpType::Relu, out),
                         fixedParallelism(OpType::Relu, 1, 0.0),
                         {bias_id});
        rec.actOp = act;
    }

    return record(rec, act, out);
}

TensorRef
Builder::deconv2d(TensorRef x, std::int64_t k, std::int64_t c_out,
                  std::int64_t up, bool relu)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() != 4, "deconv needs an NHWC activation");
    fatal_if(k < 1 || c_out < 1 || up < 1,
             "deconv needs k >= 1, c_out >= 1, up >= 1 (got k=", k,
             " c_out=", c_out, " up=", up, ")");
    TapeRecord rec;
    rec.kind = TapeKind::Deconv;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.kH = rec.kW = k;
    rec.sH = rec.sW = up;
    rec.cOut = c_out;
    rec.relu = relu;
    rec.label = "deconv" + std::to_string(++_conv_index);
    rec.params = k * k * in.dim(3) * c_out + c_out;

    std::span<const OpId> deps = depsOf(x);
    TensorShape out{in.dim(0), in.dim(1) * up, in.dim(2) * up, c_out};
    // conv2d_transpose == Conv2DBackpropInput on the output geometry.
    CostStructure cost = conv2dBackpropInputCost(out, k, in.dim(3), up);
    OpId id = _graph.add(
        OpType::Conv2DBackpropInput,
        opLabel(rec.label, "/Conv2DBackpropInput"),
        cost,
        fixedParallelism(OpType::Conv2DBackpropInput, k * k,
                         double(out.elems())),
        deps);

    OpId bias_id = _graph.add(
        OpType::BiasAdd, opLabel(rec.label, "/BiasAdd"),
        biasAddCost(out, c_out),
        fixedParallelism(OpType::BiasAdd, 1, double(out.elems())), {id});

    rec.fwdOp = bias_id;
    OpId act = bias_id;
    if (relu) {
        act = _graph.add(OpType::Relu, opLabel(rec.label, "/Relu"),
                         activationCost(OpType::Relu, out),
                         fixedParallelism(OpType::Relu, 1, 0.0),
                         {bias_id});
        rec.actOp = act;
    }

    return record(rec, act, out);
}

TensorRef
Builder::pool(TensorRef x, TapeKind kind, std::int64_t kh,
              std::int64_t kw, std::int64_t sh, std::int64_t sw)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() != 4, "pool needs an NHWC activation");
    fatal_if(kh < 1 || kw < 1 || sh < 1 || sw < 1,
             "pool needs window and strides >= 1 (got ", kh, "x", kw,
             " stride ", sh, "/", sw, ")");
    const bool square = kh == kw && sh == sw;
    const bool max = kind == TapeKind::MaxPool;
    TapeRecord rec;
    rec.kind = kind;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.kH = kh;
    rec.kW = kw;
    rec.sH = sh;
    rec.sW = sw;
    rec.label = layerLabel(max ? "maxpool" : "avgpool");

    OpType type = max ? OpType::MaxPool : OpType::AvgPool;
    // The square path keeps calling poolCost so CnnBuilder-built
    // graphs stay bit-for-bit identical.
    CostStructure cost = square ? poolCost(type, in, kh, sh)
                                : poolCost2d(type, in, kh, kw, sh, sw);
    OpId id = _graph.add(
        type, opLabel(rec.label, max ? "/MaxPool" : "/AvgPool"), cost,
        fixedParallelism(type, 1, 0.0), depsOf(x));
    rec.fwdOp = id;
    TensorShape out{in.dim(0), ceilDiv(in.dim(1), sh),
                    ceilDiv(in.dim(2), sw), in.dim(3)};
    return record(rec, id, out);
}

TensorRef
Builder::maxPool(TensorRef x, std::int64_t k, std::int64_t stride)
{
    return pool(x, TapeKind::MaxPool, k, k, stride, stride);
}

TensorRef
Builder::maxPool(TensorRef x, std::int64_t kh, std::int64_t kw,
                 std::int64_t sh, std::int64_t sw)
{
    return pool(x, TapeKind::MaxPool, kh, kw, sh, sw);
}

TensorRef
Builder::avgPool(TensorRef x, std::int64_t k, std::int64_t stride)
{
    return pool(x, TapeKind::AvgPool, k, k, stride, stride);
}

TensorRef
Builder::avgPool(TensorRef x, std::int64_t kh, std::int64_t kw,
                 std::int64_t sh, std::int64_t sw)
{
    return pool(x, TapeKind::AvgPool, kh, kw, sh, sw);
}

// ----------------------------------------------- dense / matmul layers

TensorRef
Builder::dense(TensorRef x, std::int64_t units, bool relu)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() != 2,
             "dense needs a rank-2 activation (flatten() first), got ",
             in.str());
    fatal_if(units < 1, "dense needs units >= 1, got ", units);
    TapeRecord rec;
    rec.kind = TapeKind::Dense;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.cOut = units;
    rec.relu = relu;
    rec.label = "fc" + std::to_string(++_fc_index);
    std::int64_t in_dim = in.dim(1);
    rec.params = in_dim * units + units;

    OpId mm = _graph.add(
        OpType::MatMul, opLabel(rec.label, "/MatMul"),
        matmulCost(in.dim(0), in_dim, units),
        fixedParallelism(OpType::MatMul, std::min<std::int64_t>(in_dim, 64),
                         double(in.dim(0) * units)),
        depsOf(x));

    TensorShape out{in.dim(0), units};
    OpId bias_id = _graph.add(
        OpType::BiasAdd, opLabel(rec.label, "/BiasAdd"),
        biasAddCost(out, units),
        fixedParallelism(OpType::BiasAdd, 1, double(out.elems())), {mm});

    rec.fwdOp = bias_id;
    OpId act = bias_id;
    if (relu) {
        act = _graph.add(OpType::Relu, opLabel(rec.label, "/Relu"),
                         activationCost(OpType::Relu, out),
                         fixedParallelism(OpType::Relu, 1, 0.0),
                         {bias_id});
        rec.actOp = act;
    }
    return record(rec, act, out);
}

TensorRef
Builder::matmul(TensorRef a, TensorRef b)
{
    const TensorShape &sa = shape(a);
    const TensorShape &sb = shape(b);
    fatal_if(sa.rank() != 2 || sb.rank() != 2,
             "matmul needs rank-2 operands, got ", sa.str(), " x ",
             sb.str());
    fatal_if(sa.dim(1) != sb.dim(0),
             "matmul inner dims must agree, got ", sa.str(), " x ",
             sb.str());
    TapeRecord rec;
    rec.kind = TapeKind::MatMul2;
    rec.in0 = a.tid;
    rec.in1 = b.tid;
    rec.inShape = sa;
    rec.label = layerLabel("matmul");

    std::int64_t m = sa.dim(0), kk = sa.dim(1), n = sb.dim(1);
    OpId deps_buf[2];
    std::span<const OpId> deps = depsOf(a, b, deps_buf);
    OpId id = _graph.add(
        OpType::MatMul, opLabel(rec.label, "/MatMul"), matmulCost(m, kk, n),
        fixedParallelism(OpType::MatMul, std::min<std::int64_t>(kk, 64),
                         double(m * n)),
        deps);
    rec.fwdOp = id;
    TensorShape out{m, n};
    return record(rec, id, out);
}

// --------------------------------------------- normalization, movement

TensorRef
Builder::norm(TensorRef x, TapeKind kind, const char *base,
              const char *op_suffix)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() == 0, "norm needs a shaped activation");
    TapeRecord rec;
    rec.kind = kind;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel(base);
    rec.params = 2 * in.dim(in.rank() - 1);

    OpId id = _graph.add(
        OpType::BatchNorm, opLabel(rec.label, op_suffix),
        batchNormCost(OpType::BatchNorm, in),
        fixedParallelism(OpType::BatchNorm, 1, double(in.elems())),
        depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

TensorRef
Builder::batchNorm(TensorRef x)
{
    return norm(x, TapeKind::BatchNorm, "bn", "/FusedBatchNorm");
}

TensorRef
Builder::layerNorm(TensorRef x)
{
    return norm(x, TapeKind::LayerNorm, "ln", "/LayerNorm");
}

TensorRef
Builder::dropout(TensorRef x)
{
    const TensorShape &in = shape(x);
    TapeRecord rec;
    rec.kind = TapeKind::Dropout;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("dropout");

    OpId id = _graph.add(OpType::Dropout, opLabel(rec.label, "/Dropout"),
                         dropoutCost(OpType::Dropout, in),
                         fixedParallelism(OpType::Dropout, 1, 0.0),
                         depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

TensorRef
Builder::flatten(TensorRef x)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() == 0, "flatten needs a shaped activation");
    TapeRecord rec;
    rec.kind = TapeKind::Flatten;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("flatten");

    OpId id = _graph.add(
        OpType::Reshape, opLabel(rec.label, "/Reshape"),
        dataMovementCost(0.0), // metadata-only in TF
        fixedParallelism(OpType::Reshape, 1, 0.0), depsOf(x));
    rec.fwdOp = id;
    TensorShape out{in.dim(0), in.elems() / in.dim(0)};
    return record(rec, id, out);
}

TensorRef
Builder::transpose(TensorRef x)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() != 2, "transpose needs a rank-2 activation, got ",
             in.str());
    TapeRecord rec;
    rec.kind = TapeKind::Transpose;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("transpose");

    OpId id = _graph.add(OpType::Transpose, opLabel(rec.label, "/Transpose"),
                         dataMovementCost(double(in.bytes())),
                         fixedParallelism(OpType::Transpose, 1, 0.0),
                         depsOf(x));
    rec.fwdOp = id;
    TensorShape out{in.dim(1), in.dim(0)};
    return record(rec, id, out);
}

TensorRef
Builder::slice(TensorRef x)
{
    const TensorShape &in = shape(x);
    TapeRecord rec;
    rec.kind = TapeKind::Slice;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("slice");

    OpId id = _graph.add(OpType::Slice, opLabel(rec.label, "/Slice"),
                         dataMovementCost(double(in.bytes())),
                         fixedParallelism(OpType::Slice, 1, 0.0),
                         depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

TensorRef
Builder::concat(TensorRef x)
{
    const TensorShape &in = shape(x);
    TapeRecord rec;
    rec.kind = TapeKind::Concat;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("concat");

    OpId id = _graph.add(OpType::Concat, opLabel(rec.label, "/Concat"),
                         dataMovementCost(double(in.bytes())),
                         fixedParallelism(OpType::Concat, 1, 0.0),
                         depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

// ---------------------------------------------------- elementwise ops

TensorRef
Builder::add(TensorRef a, TensorRef b)
{
    const TensorShape &sa = shape(a);
    fatal_if(!(sa == shape(b)), "add needs same-shaped operands, got ",
             sa.str(), " + ", shape(b).str());
    TapeRecord rec;
    rec.kind = TapeKind::Add2;
    rec.in0 = a.tid;
    rec.in1 = b.tid;
    rec.inShape = sa;
    rec.label = layerLabel("add");

    OpId deps_buf[2];
    std::span<const OpId> deps = depsOf(a, b, deps_buf);
    OpId id = _graph.add(
        OpType::Add, opLabel(rec.label, "/Add"),
        elementwiseCost(OpType::Add, sa),
        fixedParallelism(OpType::Add, 1, double(sa.elems())), deps);
    rec.fwdOp = id;
    return record(rec, id, sa);
}

TensorRef
Builder::mul(TensorRef a, TensorRef b)
{
    const TensorShape &sa = shape(a);
    fatal_if(!(sa == shape(b)), "mul needs same-shaped operands, got ",
             sa.str(), " * ", shape(b).str());
    TapeRecord rec;
    rec.kind = TapeKind::Mul2;
    rec.in0 = a.tid;
    rec.in1 = b.tid;
    rec.inShape = sa;
    rec.label = layerLabel("mul");

    OpId deps_buf[2];
    std::span<const OpId> deps = depsOf(a, b, deps_buf);
    OpId id = _graph.add(
        OpType::Mul, opLabel(rec.label, "/Mul"),
        elementwiseCost(OpType::Mul, sa),
        fixedParallelism(OpType::Mul, 1, double(sa.elems())), deps);
    rec.fwdOp = id;
    return record(rec, id, sa);
}

TensorRef
Builder::mulChain(TensorRef x)
{
    const TensorShape &in = shape(x);
    TapeRecord rec;
    rec.kind = TapeKind::MulChain;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("mul");

    OpId id = _graph.add(
        OpType::Mul, opLabel(rec.label, "/Mul"),
        elementwiseCost(OpType::Mul, in),
        fixedParallelism(OpType::Mul, 1, double(in.elems())), depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

TensorRef
Builder::activation(TensorRef x, TapeKind kind, OpType type,
                    const char *base)
{
    const TensorShape &in = shape(x);
    TapeRecord rec;
    rec.kind = kind;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel(base);

    OpId id = _graph.add(type, opLabel(rec.label, "/", opTraits(type).name),
                         activationCost(type, in),
                         fixedParallelism(type, 1, 0.0), depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

TensorRef
Builder::relu(TensorRef x)
{
    return activation(x, TapeKind::Relu, OpType::Relu, "relu");
}

TensorRef
Builder::tanh(TensorRef x)
{
    return activation(x, TapeKind::Tanh, OpType::Tanh, "tanh");
}

TensorRef
Builder::sigmoid(TensorRef x)
{
    return activation(x, TapeKind::Sigmoid, OpType::Sigmoid, "sigmoid");
}

TensorRef
Builder::softmax(TensorRef x)
{
    const TensorShape &in = shape(x);
    fatal_if(in.rank() != 2, "softmax needs a rank-2 activation, got ",
             in.str());
    TapeRecord rec;
    rec.kind = TapeKind::Softmax;
    rec.in0 = x.tid;
    rec.inShape = in;
    rec.label = layerLabel("softmax");

    OpId id = _graph.add(
        OpType::Softmax, opLabel(rec.label, "/Softmax"),
        softmaxCost(OpType::Softmax, in.dim(0), in.dim(1)),
        fixedParallelism(OpType::Softmax, 1, 0.0), depsOf(x));
    rec.fwdOp = id;
    return record(rec, id, in);
}

// -------------------------------------------------------- finishing

Graph
Builder::finishForward()
{
    fatal_if(_finished, "Builder already finished");
    _finished = true;
    return std::move(_graph);
}

Graph
Builder::trainingStep(TensorRef logits, Optimizer optimizer,
                      std::size_t extra_loss_muls)
{
    fatal_if(_finished, "Builder already finished");
    fatal_if(_tape.empty(), "cannot finish an empty model");
    const TensorEntry &logits_entry = entry(logits);
    fatal_if(logits_entry.op == invalidOp,
             "cannot take the training loss over a graph input");

    // ---- Loss: softmax + grad over the final activation.
    const TensorShape &logits_shape = logits_entry.shape;
    std::int64_t batch = logits_shape.dim(0);
    std::int64_t classes = logits_shape.elems() / batch;
    OpId loss = _graph.add(
        OpType::Softmax, "loss/Softmax",
        softmaxCost(OpType::Softmax, batch, classes),
        fixedParallelism(OpType::Softmax, 1, 0.0), {logits_entry.op});

    // GAN-style losses spray many small Mul ops around the loss.
    OpId mul_tail = loss;
    TensorShape loss_shape{batch, classes};
    for (std::size_t i = 0; i < extra_loss_muls; ++i) {
        mul_tail = _graph.add(
            OpType::Mul, opLabel("loss/Mul_", std::to_string(i)),
            elementwiseCost(OpType::Mul, loss_shape),
            fixedParallelism(OpType::Mul, 1, double(loss_shape.elems())),
            {mul_tail});
    }

    OpId loss_grad = _graph.add(
        OpType::SoftmaxGrad, "loss/SoftmaxGrad",
        softmaxCost(OpType::SoftmaxGrad, batch, classes),
        fixedParallelism(OpType::SoftmaxGrad, 1, 0.0), {mul_tail});

    // ---- Reverse-mode tape walk. Contributions per tensor: a tape
    // record's consumers all sit later in the tape, so by the time the
    // walk reaches the producing record every contribution to its
    // output is present and can be combined. Each tensor's
    // contributions are a list, in push order, over one node array.
    constexpr std::uint32_t none = ~std::uint32_t(0);
    struct Contribution
    {
        OpId grad;
        std::uint32_t next;
    };
    struct ContributionList
    {
        std::uint32_t head = none;
        std::uint32_t tail = none;
    };
    std::vector<Contribution> contributions;
    contributions.reserve(2 * _tape.size());
    std::vector<ContributionList> lists(_tensors.size());
    auto contribute = [&](std::uint32_t tid, OpId grad_op) {
        auto node = static_cast<std::uint32_t>(contributions.size());
        contributions.push_back({grad_op, none});
        ContributionList &list = lists[tid];
        (list.tail == none ? list.head
                           : contributions[list.tail].next) = node;
        list.tail = node;
    };
    contribute(logits.tid, loss_grad);

    // Parameter-gradient producers; labels stay (record, suffix) pairs
    // until the optimizer op composes them.
    struct ParamGrad
    {
        OpId op;
        std::int64_t params;
        const std::string *label;
        const char *suffix;
    };
    std::vector<ParamGrad> param_grads;
    param_grads.reserve(2 * _tape.size());

    // @return true when @p tid is produced by a tape record (a source
    // input needs no gradient op).
    auto produced = [this](std::uint32_t tid) {
        return _tensors[tid].record >= 0;
    };
    // @return {grad, producer of @p tid}, the producer only if any.
    OpId pair_buf[2];
    auto withProducer = [&](OpId grad, std::uint32_t tid) {
        pair_buf[0] = grad;
        pair_buf[1] = _tensors[tid].op;
        return std::span<const OpId>(
            pair_buf, pair_buf[1] == invalidOp ? 1 : 2);
    };

    for (auto it = _tape.rbegin(); it != _tape.rend(); ++it) {
        const TapeRecord &rec = *it;
        std::uint32_t node = lists[rec.out].head;
        if (node == none)
            continue; // not on the loss path; no gradient flows
        // Fan-out: sum the consumers' gradients pairwise.
        OpId grad = contributions[node].grad;
        for (std::size_t i = 0;
             (node = contributions[node].next) != none; ++i) {
            grad = _graph.add(
                OpType::Add,
                opLabel(rec.label, "/AddGrad_", std::to_string(i)),
                elementwiseCost(OpType::Add, rec.outShape),
                fixedParallelism(OpType::Add, 1,
                                 double(rec.outShape.elems())),
                {grad, contributions[node].grad});
        }

        switch (rec.kind) {
          case TapeKind::Conv:
          case TapeKind::Deconv: {
            if (rec.relu) {
                grad = _graph.add(
                    OpType::ReluGrad, opLabel(rec.label, "/ReluGrad"),
                    activationCost(OpType::ReluGrad, rec.outShape),
                    fixedParallelism(OpType::ReluGrad, 1, 0.0),
                    {grad, rec.actOp});
            }
            OpId bias_grad = _graph.add(
                OpType::BiasAddGrad, opLabel(rec.label, "/BiasAddGrad"),
                biasAddGradCost(rec.outShape, rec.cOut),
                fixedParallelism(OpType::BiasAddGrad, 8,
                                 double(rec.cOut)),
                {grad});
            param_grads.push_back({bias_grad, rec.cOut, &rec.label, "/bias"});

            OpId w_grad = _graph.add(
                OpType::Conv2DBackpropFilter,
                opLabel(rec.label, "/Conv2DBackpropFilter"),
                conv2dBackpropFilterCost(rec.inShape, rec.kH, rec.cOut,
                                         rec.sH),
                fixedParallelism(OpType::Conv2DBackpropFilter,
                                 rec.kH * rec.kW,
                                 double(rec.params)),
                {grad, rec.fwdOp});
            param_grads.push_back(
                {w_grad, rec.params - rec.cOut, &rec.label, "/kernel"});

            if (produced(rec.in0)) {
                grad = _graph.add(
                    OpType::Conv2DBackpropInput,
                    opLabel(rec.label, "/Conv2DBackpropInput"),
                    conv2dBackpropInputCost(rec.inShape, rec.kH,
                                            rec.cOut, rec.sH),
                    fixedParallelism(OpType::Conv2DBackpropInput,
                                     rec.kH * rec.kW,
                                     double(rec.inShape.elems())),
                    {grad});
                contribute(rec.in0, grad);
            }
            break;
          }
          case TapeKind::Dense: {
            if (rec.relu) {
                grad = _graph.add(
                    OpType::ReluGrad, opLabel(rec.label, "/ReluGrad"),
                    activationCost(OpType::ReluGrad, rec.outShape),
                    fixedParallelism(OpType::ReluGrad, 1, 0.0),
                    {grad, rec.actOp});
            }
            OpId bias_grad = _graph.add(
                OpType::BiasAddGrad, opLabel(rec.label, "/BiasAddGrad"),
                biasAddGradCost(rec.outShape, rec.cOut),
                fixedParallelism(OpType::BiasAddGrad, 8,
                                 double(rec.cOut)),
                {grad});
            param_grads.push_back({bias_grad, rec.cOut, &rec.label, "/bias"});

            std::int64_t in_dim = rec.inShape.dim(1);
            std::int64_t b = rec.inShape.dim(0);
            OpId w_grad = _graph.add(
                OpType::MatMulGradWeights,
                opLabel(rec.label, "/MatMul_grad_w"),
                matmulCost(in_dim, b, rec.cOut),
                fixedParallelism(OpType::MatMulGradWeights,
                                 std::min<std::int64_t>(b, 64),
                                 double(in_dim * rec.cOut)),
                {grad, rec.fwdOp});
            param_grads.push_back(
                {w_grad, in_dim * rec.cOut, &rec.label, "/kernel"});

            if (produced(rec.in0)) {
                grad = _graph.add(
                    OpType::MatMulGradInputs,
                    opLabel(rec.label, "/MatMul_grad_x"),
                    matmulCost(b, rec.cOut, in_dim),
                    fixedParallelism(OpType::MatMulGradInputs,
                                     std::min<std::int64_t>(rec.cOut, 64),
                                     double(b * in_dim)),
                    {grad});
                contribute(rec.in0, grad);
            }
            break;
          }
          case TapeKind::MatMul2: {
            // out = A x B, A:[m,k] B:[k,n]. dA = dOut x B^T,
            // dB = A^T x dOut; both operands are activations.
            std::int64_t m = rec.inShape.dim(0);
            std::int64_t kk = rec.inShape.dim(1);
            std::int64_t n = rec.outShape.dim(1);
            if (produced(rec.in0)) {
                OpId da = _graph.add(
                    OpType::MatMulGradInputs,
                    opLabel(rec.label, "/MatMul_grad_a"), matmulCost(m, n, kk),
                    fixedParallelism(OpType::MatMulGradInputs,
                                     std::min<std::int64_t>(n, 64),
                                     double(m * kk)),
                    withProducer(grad, rec.in1));
                contribute(rec.in0, da);
            }
            if (produced(rec.in1)) {
                OpId db = _graph.add(
                    OpType::MatMulGradWeights,
                    opLabel(rec.label, "/MatMul_grad_b"), matmulCost(kk, m, n),
                    fixedParallelism(OpType::MatMulGradWeights,
                                     std::min<std::int64_t>(m, 64),
                                     double(kk * n)),
                    withProducer(grad, rec.in0));
                contribute(rec.in1, db);
            }
            break;
          }
          case TapeKind::MaxPool:
            grad = _graph.add(
                OpType::MaxPoolGrad, opLabel(rec.label, "/MaxPoolGrad"),
                rec.kH == rec.kW && rec.sH == rec.sW
                    ? poolCost(OpType::MaxPoolGrad, rec.inShape, rec.kH,
                               rec.sH)
                    : poolCost2d(OpType::MaxPoolGrad, rec.inShape,
                                 rec.kH, rec.kW, rec.sH, rec.sW),
                fixedParallelism(OpType::MaxPoolGrad, 1, 0.0),
                {grad, rec.fwdOp});
            contribute(rec.in0, grad);
            break;
          case TapeKind::AvgPool:
            grad = _graph.add(
                OpType::AvgPoolGrad, opLabel(rec.label, "/AvgPoolGrad"),
                rec.kH == rec.kW && rec.sH == rec.sW
                    ? poolCost(OpType::AvgPoolGrad, rec.inShape, rec.kH,
                               rec.sH)
                    : poolCost2d(OpType::AvgPoolGrad, rec.inShape,
                                 rec.kH, rec.kW, rec.sH, rec.sW),
                fixedParallelism(OpType::AvgPoolGrad, 1, 0.0),
                {grad});
            contribute(rec.in0, grad);
            break;
          case TapeKind::BatchNorm:
            grad = _graph.add(
                OpType::BatchNormGrad,
                opLabel(rec.label, "/FusedBatchNormGrad"),
                batchNormCost(OpType::BatchNormGrad, rec.inShape),
                fixedParallelism(OpType::BatchNormGrad, 1,
                                 double(rec.inShape.elems())),
                {grad, rec.fwdOp});
            param_grads.push_back(
                {grad, rec.params, &rec.label, "/scale_offset"});
            contribute(rec.in0, grad);
            break;
          case TapeKind::LayerNorm:
            grad = _graph.add(
                OpType::BatchNormGrad, opLabel(rec.label, "/LayerNormGrad"),
                batchNormCost(OpType::BatchNormGrad, rec.inShape),
                fixedParallelism(OpType::BatchNormGrad, 1,
                                 double(rec.inShape.elems())),
                {grad, rec.fwdOp});
            param_grads.push_back(
                {grad, rec.params, &rec.label, "/scale_offset"});
            contribute(rec.in0, grad);
            break;
          case TapeKind::Dropout:
            grad = _graph.add(
                OpType::DropoutGrad, opLabel(rec.label, "/DropoutGrad"),
                dropoutCost(OpType::DropoutGrad, rec.inShape),
                fixedParallelism(OpType::DropoutGrad, 1, 0.0),
                {grad, rec.fwdOp});
            contribute(rec.in0, grad);
            break;
          case TapeKind::MulChain:
            grad = _graph.add(
                OpType::Mul, opLabel(rec.label, "/MulGrad"),
                elementwiseCost(OpType::Mul, rec.inShape),
                fixedParallelism(OpType::Mul, 1,
                                 double(rec.inShape.elems())),
                {grad});
            contribute(rec.in0, grad);
            break;
          case TapeKind::Mul2: {
            if (produced(rec.in0)) {
                OpId da = _graph.add(
                    OpType::Mul, opLabel(rec.label, "/MulGrad_a"),
                    elementwiseCost(OpType::Mul, rec.inShape),
                    fixedParallelism(OpType::Mul, 1,
                                     double(rec.inShape.elems())),
                    withProducer(grad, rec.in1));
                contribute(rec.in0, da);
            }
            if (produced(rec.in1)) {
                OpId db = _graph.add(
                    OpType::Mul, opLabel(rec.label, "/MulGrad_b"),
                    elementwiseCost(OpType::Mul, rec.inShape),
                    fixedParallelism(OpType::Mul, 1,
                                     double(rec.inShape.elems())),
                    withProducer(grad, rec.in0));
                contribute(rec.in1, db);
            }
            break;
          }
          case TapeKind::Add2:
            // d(a + b) passes the gradient through to both operands.
            contribute(rec.in0, grad);
            if (rec.in1 != rec.in0)
                contribute(rec.in1, grad);
            break;
          case TapeKind::Slice:
          case TapeKind::Concat:
            grad = _graph.add(
                OpType::Slice, opLabel(rec.label, "/SliceGrad"),
                dataMovementCost(double(rec.inShape.bytes())),
                fixedParallelism(OpType::Slice, 1, 0.0), {grad});
            contribute(rec.in0, grad);
            break;
          case TapeKind::Flatten:
            // Reshape gradients are metadata-only.
            contribute(rec.in0, grad);
            break;
          case TapeKind::Transpose:
            grad = _graph.add(
                OpType::Transpose, opLabel(rec.label, "/TransposeGrad"),
                dataMovementCost(double(rec.inShape.bytes())),
                fixedParallelism(OpType::Transpose, 1, 0.0), {grad});
            contribute(rec.in0, grad);
            break;
          case TapeKind::Softmax:
            grad = _graph.add(
                OpType::SoftmaxGrad, opLabel(rec.label, "/SoftmaxGrad"),
                softmaxCost(OpType::SoftmaxGrad, rec.inShape.dim(0),
                            rec.inShape.dim(1)),
                fixedParallelism(OpType::SoftmaxGrad, 1, 0.0),
                {grad, rec.fwdOp});
            contribute(rec.in0, grad);
            break;
          case TapeKind::Relu:
            grad = _graph.add(
                OpType::ReluGrad, opLabel(rec.label, "/ReluGrad"),
                activationCost(OpType::ReluGrad, rec.inShape),
                fixedParallelism(OpType::ReluGrad, 1, 0.0),
                {grad, rec.fwdOp});
            contribute(rec.in0, grad);
            break;
          case TapeKind::Tanh:
          case TapeKind::Sigmoid:
            // d/dx lowers to an elementwise product with a function
            // of the forward output (1 - y^2, resp. y(1 - y)).
            grad = _graph.add(
                OpType::Mul,
                opLabel(rec.label, rec.kind == TapeKind::Tanh
                                       ? "/TanhGrad"
                                       : "/SigmoidGrad"),
                elementwiseCost(OpType::Mul, rec.inShape),
                fixedParallelism(OpType::Mul, 1,
                                 double(rec.inShape.elems())),
                {grad, rec.fwdOp});
            contribute(rec.in0, grad);
            break;
        }
    }

    // ---- Optimizer: one update op per parameter tensor, in the
    // backward-walk discovery order (last layer's params first).
    const bool adam = optimizer == Optimizer::Adam;
    const OpType apply = adam ? OpType::ApplyAdam : OpType::ApplySgd;
    for (const ParamGrad &p : param_grads) {
        _graph.add(apply,
                   opLabel(*p.label, p.suffix,
                           adam ? "/ApplyAdam" : "/ApplySgd"),
                   adam ? applyAdamCost(p.params) : applySgdCost(p.params),
                   fixedParallelism(apply, 1, 0.0), {p.op});
    }

    _finished = true;
    return std::move(_graph);
}

} // namespace hpim::nn
