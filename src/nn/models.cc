#include "nn/models.hh"

#include "nn/builder.hh"
#include "nn/graph_builder.hh"
#include "sim/logging.hh"

namespace hpim::nn {

int
defaultBatchSize(ModelId model)
{
    switch (model) {
      case ModelId::Vgg19:       return 32;
      case ModelId::AlexNet:     return 32;
      case ModelId::Dcgan:       return 64;
      case ModelId::ResNet50:    return 128;
      case ModelId::InceptionV3: return 32;
      case ModelId::Lstm:        return 20;
      case ModelId::Word2vec:    return 128;
    }
    panic("unknown model id");
}

std::string
modelName(ModelId model)
{
    switch (model) {
      case ModelId::Vgg19:       return "VGG-19";
      case ModelId::AlexNet:     return "AlexNet";
      case ModelId::Dcgan:       return "DCGAN";
      case ModelId::ResNet50:    return "ResNet-50";
      case ModelId::InceptionV3: return "Inception-v3";
      case ModelId::Lstm:        return "LSTM";
      case ModelId::Word2vec:    return "Word2vec";
    }
    panic("unknown model id");
}

Graph
buildModel(ModelId model, int batch)
{
    if (batch <= 0)
        batch = defaultBatchSize(model);
    switch (model) {
      case ModelId::Vgg19:       return buildVgg19(batch);
      case ModelId::AlexNet:     return buildAlexNet(batch);
      case ModelId::Dcgan:       return buildDcgan(batch);
      case ModelId::ResNet50:    return buildResNet50(batch);
      case ModelId::InceptionV3: return buildInceptionV3(batch);
      case ModelId::Lstm:        return buildLstm(batch);
      case ModelId::Word2vec:    return buildWord2vec(batch);
    }
    panic("unknown model id");
}

std::vector<ModelId>
cnnModels()
{
    return {ModelId::Vgg19, ModelId::AlexNet, ModelId::Dcgan,
            ModelId::ResNet50, ModelId::InceptionV3};
}

std::vector<ModelId>
allModels()
{
    return {ModelId::Vgg19,       ModelId::AlexNet, ModelId::Dcgan,
            ModelId::ResNet50,    ModelId::InceptionV3,
            ModelId::Lstm,        ModelId::Word2vec};
}

Graph
buildVgg19(int batch)
{
    CnnBuilder b("VGG-19", TensorShape{batch, 224, 224, 3});
    // conv3-64 x2, pool
    b.conv(3, 64, 1).conv(3, 64, 1).maxPool(2, 2);
    // conv3-128 x2, pool
    b.conv(3, 128, 1).conv(3, 128, 1).maxPool(2, 2);
    // conv3-256 x4, pool
    b.conv(3, 256, 1).conv(3, 256, 1).conv(3, 256, 1).conv(3, 256, 1);
    b.maxPool(2, 2);
    // conv3-512 x4, pool
    b.conv(3, 512, 1).conv(3, 512, 1).conv(3, 512, 1).conv(3, 512, 1);
    b.maxPool(2, 2);
    // conv3-512 x4, pool
    b.conv(3, 512, 1).conv(3, 512, 1).conv(3, 512, 1).conv(3, 512, 1);
    b.maxPool(2, 2);
    // FC 4096, 4096, 1000
    b.fc(4096).dropout().fc(4096).dropout().fc(1000, false);
    return b.finish();
}

Graph
buildAlexNet(int batch)
{
    CnnBuilder b("AlexNet", TensorShape{batch, 227, 227, 3});
    b.conv(11, 96, 4).maxPool(3, 2);
    b.conv(5, 256, 1).maxPool(3, 2);
    b.conv(3, 384, 1).conv(3, 384, 1).conv(3, 256, 1).maxPool(3, 2);
    b.fc(4096).dropout().fc(4096).dropout().fc(1000, false);
    return b.finish();
}

Graph
buildDcgan(int batch)
{
    // Generator (z=100 -> 28x28x1) + discriminator in one step.
    // TensorFlow lowers the generator's conv2d_transpose layers to
    // Conv2DBackpropInput forward ops; the training step also contains
    // many small Mul/Slice ops from the two-player loss plumbing
    // (Table I: Mul x84, Slice is a top memory op).
    CnnBuilder net("DCGAN", TensorShape{batch, 7, 7, 128});
    net.slice();                       // z / minibatch plumbing
    net.deconv(5, 64, 2).batchNorm();  // 14x14x64
    net.deconv(5, 1, 2, false);        // 28x28x1 (tanh omitted)
    // Discriminator on the generated image.
    net.conv(5, 64, 2).conv(5, 128, 2); // 14x14x64 -> 7x7x128
    net.slice();
    net.flatten().fc(1024).dropout().fc(1, false);
    // Extra generator/discriminator FC pairs to reflect both players'
    // updates in a single profiled step.
    net.fc(64, true).fc(32, true).fc(16, true).fc(8, true);
    return net.finish(/*extra_loss_muls=*/60);
}

Graph
buildResNet50(int batch)
{
    CnnBuilder b("ResNet-50", TensorShape{batch, 224, 224, 3});
    b.conv(7, 64, 2).batchNorm().maxPool(3, 2);

    // Bottleneck stages [3, 4, 6, 3]; the projection/identity adds are
    // modelled by the running chain; each bottleneck is 1x1, 3x3, 1x1.
    auto bottleneck = [&b](std::int64_t mid, std::int64_t out,
                           std::int64_t stride) {
        b.conv(1, mid, stride).batchNorm();
        b.conv(3, mid, 1).batchNorm();
        b.conv(1, out, 1, false).batchNorm();
    };

    for (int i = 0; i < 3; ++i)
        bottleneck(64, 256, 1);
    bottleneck(128, 512, 2);
    for (int i = 0; i < 3; ++i)
        bottleneck(128, 512, 1);
    bottleneck(256, 1024, 2);
    for (int i = 0; i < 5; ++i)
        bottleneck(256, 1024, 1);
    bottleneck(512, 2048, 2);
    for (int i = 0; i < 2; ++i)
        bottleneck(512, 2048, 1);

    b.avgPool(7, 7);
    b.fc(1000, false);
    return b.finish();
}

Graph
buildInceptionV3(int batch)
{
    CnnBuilder b("Inception-v3", TensorShape{batch, 299, 299, 3});
    // Stem.
    b.conv(3, 32, 2).batchNorm();
    b.conv(3, 32, 1).batchNorm();
    b.conv(3, 64, 1).batchNorm().maxPool(3, 2);
    b.conv(1, 80, 1).batchNorm();
    b.conv(3, 192, 1).batchNorm().maxPool(3, 2);

    // Inception-A x3 (35x35): modelled as the four branch convs in
    // sequence plus a concat; branch widths follow the published net.
    for (int i = 0; i < 3; ++i) {
        b.conv(1, 64, 1).batchNorm();
        b.conv(5, 64, 1).batchNorm();
        b.conv(3, 96, 1).batchNorm().conv(3, 96, 1).batchNorm();
        b.conv(1, 32 + 32 * i, 1).batchNorm();
        b.concat();
    }
    // Reduction-A.
    b.conv(3, 384, 2).batchNorm();

    // Inception-B x4 (17x17) with factorized 7x7 (modelled as 7-wide).
    for (int i = 0; i < 4; ++i) {
        b.conv(1, 192, 1).batchNorm();
        b.conv(7, 128 + 32 * (i % 2), 1).batchNorm();
        b.conv(1, 192, 1).batchNorm();
        b.concat();
    }
    // Reduction-B.
    b.conv(3, 320, 2).batchNorm();

    // Inception-C x2 (8x8).
    for (int i = 0; i < 2; ++i) {
        b.conv(1, 320, 1).batchNorm();
        b.conv(3, 384, 1).batchNorm();
        b.conv(3, 448, 1).batchNorm();
        b.concat();
    }

    b.avgPool(8, 8);
    b.dropout();
    b.fc(1000, false);
    return b.finish();
}

Graph
buildLstm(int batch)
{
    // PTB "medium": 2 layers, hidden 650, seq_len 35, vocab 10000.
    const std::int64_t hidden = 650;
    const std::int64_t seq = 35;
    const std::int64_t vocab = 10000;

    Builder b("LSTM");
    OpId prev = b.rawOp(OpType::EmbeddingLookup, "embed/Lookup",
                      embeddingCost(OpType::EmbeddingLookup,
                                    batch * seq, hidden),
                      fixedParallelism(OpType::EmbeddingLookup, 1, 0.0));

    std::vector<OpId> cell_fwd;
    cell_fwd.reserve(2 * seq);
    std::string label; // every per-layer label is formatted in here
    for (int layer = 0; layer < 2; ++layer) {
        std::int64_t in_dim = hidden;
        for (int t = 0; t < seq; ++t) {
            label.assign("lstm").append(std::to_string(layer));
            label.append("/t").append(std::to_string(t));
            prev = b.rawOp(OpType::LstmCell, label.append("/LSTMCell"),
                         lstmCellCost(OpType::LstmCell, batch, in_dim,
                                      hidden),
                         fixedParallelism(OpType::LstmCell, 64,
                                          double(batch * 4 * hidden)),
                         {prev});
            cell_fwd.push_back(prev);
        }
        label.assign("lstm").append(std::to_string(layer));
        prev = b.rawOp(OpType::Dropout, label.append("/Dropout"),
                     dropoutCost(OpType::Dropout,
                                 TensorShape{batch * seq, hidden}),
                     fixedParallelism(OpType::Dropout, 1, 0.0), {prev});
    }

    // Output projection over the whole unrolled sequence.
    OpId proj = b.rawOp(OpType::MatMul, "proj/MatMul",
                      matmulCost(batch * seq, hidden, vocab),
                      fixedParallelism(OpType::MatMul, 64,
                                       double(batch * seq * vocab)),
                      {prev});
    OpId soft = b.rawOp(OpType::Softmax, "loss/Softmax",
                      softmaxCost(OpType::Softmax, batch * seq, vocab),
                      fixedParallelism(OpType::Softmax, 1, 0.0), {proj});
    OpId grad = b.rawOp(OpType::SoftmaxGrad, "loss/SoftmaxGrad",
                      softmaxCost(OpType::SoftmaxGrad, batch * seq, vocab),
                      fixedParallelism(OpType::SoftmaxGrad, 1, 0.0),
                      {soft});
    grad = b.rawOp(OpType::MatMulGradWeights, "proj/MatMul_grad_w",
                 matmulCost(hidden, batch * seq, vocab),
                 fixedParallelism(OpType::MatMulGradWeights, 64,
                                  double(hidden * vocab)),
                 {grad});

    // Backward through time, newest step first.
    for (auto it = cell_fwd.rbegin(); it != cell_fwd.rend(); ++it) {
        grad = b.rawOp(OpType::LstmCellGrad, "bptt/LSTMCellGrad",
                     lstmCellCost(OpType::LstmCellGrad, batch, hidden,
                                  hidden),
                     fixedParallelism(OpType::LstmCellGrad, 64,
                                      double(batch * 4 * hidden)),
                     {grad, *it});
    }

    OpId embed_grad = b.rawOp(OpType::EmbeddingGrad, "embed/Grad",
                            embeddingCost(OpType::EmbeddingGrad,
                                          batch * seq, hidden),
                            fixedParallelism(OpType::EmbeddingGrad, 1,
                                             0.0),
                            {grad});

    // Parameter updates: 2 layers of LSTM weights + projection + embed.
    std::int64_t lstm_params = 2 * (4 * (2 * hidden) * hidden);
    b.rawOp(OpType::ApplyAdam, "lstm/ApplyAdam",
          applyAdamCost(lstm_params),
          fixedParallelism(OpType::ApplyAdam, 1, 0.0), {grad});
    b.rawOp(OpType::ApplyAdam, "proj/ApplyAdam",
          applyAdamCost(hidden * vocab),
          fixedParallelism(OpType::ApplyAdam, 1, 0.0), {grad});
    b.rawOp(OpType::ApplyAdam, "embed/ApplyAdam",
          applyAdamCost(vocab * hidden),
          fixedParallelism(OpType::ApplyAdam, 1, 0.0), {embed_grad});
    return b.finishForward();
}

Graph
buildWord2vec(int batch)
{
    // Skip-gram with NCE loss, embedding dim 128, vocab 50000,
    // 64 negative samples ("questions-words" setup in TensorFlow).
    const std::int64_t dim = 128;
    const std::int64_t vocab = 50000;
    const std::int64_t negatives = 64;

    Builder b("Word2vec");
    OpId in = b.rawOp(OpType::EmbeddingLookup, "embed_in/Lookup",
                    embeddingCost(OpType::EmbeddingLookup, batch, dim),
                    fixedParallelism(OpType::EmbeddingLookup, 1, 0.0));
    OpId out = b.rawOp(OpType::EmbeddingLookup, "embed_out/Lookup",
                     embeddingCost(OpType::EmbeddingLookup,
                                   batch * (1 + negatives), dim),
                     fixedParallelism(OpType::EmbeddingLookup, 1, 0.0));
    OpId loss = b.rawOp(OpType::NceLoss, "loss/NceLoss",
                      nceLossCost(batch, negatives, dim),
                      fixedParallelism(OpType::NceLoss, 16,
                                       double(batch * (1 + negatives))),
                      {in, out});
    OpId grad_in = b.rawOp(OpType::EmbeddingGrad, "embed_in/Grad",
                         embeddingCost(OpType::EmbeddingGrad, batch, dim),
                         fixedParallelism(OpType::EmbeddingGrad, 1, 0.0),
                         {loss});
    OpId grad_out = b.rawOp(OpType::EmbeddingGrad, "embed_out/Grad",
                          embeddingCost(OpType::EmbeddingGrad,
                                        batch * (1 + negatives), dim),
                          fixedParallelism(OpType::EmbeddingGrad, 1, 0.0),
                          {loss});
    b.rawOp(OpType::ApplyAdam, "embed_in/ApplyAdam",
          applyAdamCost(vocab * dim / 100), // touched rows only
          fixedParallelism(OpType::ApplyAdam, 1, 0.0), {grad_in});
    b.rawOp(OpType::ApplyAdam, "embed_out/ApplyAdam",
          applyAdamCost(vocab * dim / 100),
          fixedParallelism(OpType::ApplyAdam, 1, 0.0), {grad_out});
    return b.finishForward();
}

} // namespace hpim::nn
