// Crypto ablation bench: per-operation cost of the primitives behind the
// paper's three `says` authentication schemes. Explains the gaps between the
// RSA / HMAC / Plaintext curves in Figure 2.
#include <string>

#include <benchmark/benchmark.h>

#include "crypto/bigint.h"
#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/secure_random.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"
#include "crypto/stream_cipher.h"

namespace {

using namespace lbtrust::crypto;  // NOLINT: bench file

const char kMessage[] =
    "says(alice,bob,[|reachable(alice,carol).|]) #4242";

RsaKeyPair& Key1024() {
  static RsaKeyPair* kp = [] {
    SecureRandom rng(uint64_t{2009});
    auto r = RsaGenerateKeyPair(1024, &rng);
    return new RsaKeyPair(r.value());
  }();
  return *kp;
}

void BM_Sha1(benchmark::State& state) {
  std::string msg(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::Digest(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  std::string msg(static_cast<size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha1Sign(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha1("sharedsecret-alice-bob", kMessage));
  }
}
BENCHMARK(BM_HmacSha1Sign);

void BM_RsaSign1024(benchmark::State& state) {
  RsaKeyPair& kp = Key1024();
  for (auto _ : state) {
    auto sig = RsaSign(kp.private_key, kMessage);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_RsaSign1024);

void BM_RsaVerify1024(benchmark::State& state) {
  RsaKeyPair& kp = Key1024();
  std::string sig = RsaSign(kp.private_key, kMessage).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RsaVerify(kp.public_key, kMessage, sig));
  }
}
BENCHMARK(BM_RsaVerify1024);

// Context set-up that every BigInt::ModExp pays: R^2 mod n for a 1024-bit n.
void BM_MontgomeryCreate1024(benchmark::State& state) {
  const BigInt& n = Key1024().public_key.n;
  for (auto _ : state) {
    auto ctx = MontgomeryContext::Create(n);
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_MontgomeryCreate1024);

// The division behind each CRT half of a signature: a 1024-bit value
// reduced modulo a 512-bit prime.
void BM_BigIntMod1024By512(benchmark::State& state) {
  SecureRandom rng(uint64_t{1});
  BigInt a = rng.RandomBits(1024);
  const BigInt& p = Key1024().private_key.p;
  for (auto _ : state) {
    auto r = BigInt::Mod(a, p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BigIntMod1024By512);

void BM_RsaKeygen512(benchmark::State& state) {
  uint64_t seed = 1;
  for (auto _ : state) {
    SecureRandom rng(seed++);
    auto kp = RsaGenerateKeyPair(512, &rng);
    benchmark::DoNotOptimize(kp);
  }
}
BENCHMARK(BM_RsaKeygen512)->Unit(benchmark::kMillisecond);

void BM_Crc32(benchmark::State& state) {
  std::string msg(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(msg));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Crc32);

void BM_SealedBoxRoundTrip(benchmark::State& state) {
  std::string pt(256, 'p');
  for (auto _ : state) {
    std::string sealed = SealedBox("key", "nonce", pt);
    std::string out;
    bool ok = SealedOpen("key", sealed, &out);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SealedBoxRoundTrip);

}  // namespace
