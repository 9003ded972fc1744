#include "crypto/sig.h"

#include "common/check.h"
#include "crypto/sha256.h"

namespace fastreg::crypto {

oracle_signature_scheme::oracle_signature_scheme(std::uint64_t seed)
    : seed_(seed) {}

std::vector<std::uint8_t> oracle_signature_scheme::key_for(
    const process_id& signer) const {
  // Derive a per-signer secret from the scheme seed. Outside code never
  // sees this value; only sign()/verify() recompute it.
  sha256 h;
  std::uint8_t material[16];
  for (int i = 0; i < 8; ++i) {
    material[i] = static_cast<std::uint8_t>(seed_ >> (8 * i));
  }
  const std::uint64_t ident =
      (static_cast<std::uint64_t>(signer.r) << 32) | signer.index;
  for (int i = 0; i < 8; ++i) {
    material[8 + i] = static_cast<std::uint8_t>(ident >> (8 * i));
  }
  h.update(std::span<const std::uint8_t>(material, sizeof material));
  const sha256::digest d = h.finish();
  return {d.begin(), d.end()};
}

std::vector<std::uint8_t> oracle_signature_scheme::sign(
    const process_id& signer, std::span<const std::uint8_t> payload) {
  sha256 h;
  const auto key = key_for(signer);
  h.update(std::span<const std::uint8_t>(key.data(), key.size()));
  h.update(payload);
  const sha256::digest d = h.finish();
  return {d.begin(), d.end()};
}

bool oracle_signature_scheme::verify(const process_id& signer,
                                     std::span<const std::uint8_t> payload,
                                     std::span<const std::uint8_t> sig) const {
  if (sig.size() != sha256::digest_size) return false;
  sha256 h;
  const auto key = key_for(signer);
  h.update(std::span<const std::uint8_t>(key.data(), key.size()));
  h.update(payload);
  const sha256::digest d = h.finish();
  return std::equal(d.begin(), d.end(), sig.begin());
}

rsa_signature_scheme::rsa_signature_scheme(std::size_t key_bits,
                                           std::uint64_t seed)
    : key_bits_(key_bits), seed_(seed) {}

const rsa_keypair& rsa_signature_scheme::keypair_for(
    const process_id& signer) const {
  auto it = keys_.find(signer);
  if (it == keys_.end()) {
    rng r(seed_ ^ (static_cast<std::uint64_t>(signer.r) << 32) ^
          signer.index);
    it = keys_.emplace(signer, rsa_generate(key_bits_, r)).first;
  }
  return it->second;
}

std::vector<std::uint8_t> rsa_signature_scheme::sign(
    const process_id& signer, std::span<const std::uint8_t> payload) {
  return rsa_sign(keypair_for(signer).priv, payload);
}

bool rsa_signature_scheme::verify(const process_id& signer,
                                  std::span<const std::uint8_t> payload,
                                  std::span<const std::uint8_t> sig) const {
  return rsa_verify(keypair_for(signer).pub, payload, sig);
}

std::unique_ptr<signature_scheme> make_signature_scheme(
    const std::string& name, std::uint64_t seed) {
  if (name == "oracle") {
    return std::make_unique<oracle_signature_scheme>(seed);
  }
  if (name == "rsa") {
    return std::make_unique<rsa_signature_scheme>(512, seed);
  }
  FASTREG_CHECK(false && "unknown signature scheme");
  return nullptr;
}

}  // namespace fastreg::crypto
