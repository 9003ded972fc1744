// Signature-scheme abstraction used by the Byzantine-tolerant register
// (Figure 5). The protocol only relies on the two properties of Section 6:
//
//   Property 1 (Authentication): readers can check that a value returned by
//   a server was in fact written by the writer.
//   Property 2 (Unforgeability): it is impossible to forge the writer's
//   signature.
//
// Two interchangeable implementations (crash-model protocols use none:
// system_config::sigs stays null):
//   * oracle_signature_scheme -- keyed-hash oracle; exact unforgeability
//     within the process, negligible cost. Default for simulations.
//   * rsa_signature_scheme    -- real RSA over SHA-256; for TCP runs and
//     signature-cost measurements.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "crypto/rsa.h"

namespace fastreg::crypto {

class signature_scheme {
 public:
  virtual ~signature_scheme() = default;

  /// Produces `signer`'s signature over `payload`. In a real deployment only
  /// the holder of `signer`'s private key can do this; protocol code must
  /// only ever call sign() for the process it is running as.
  [[nodiscard]] virtual std::vector<std::uint8_t> sign(
      const process_id& signer, std::span<const std::uint8_t> payload) = 0;

  /// Checks that `sig` is `signer`'s signature over `payload`.
  [[nodiscard]] virtual bool verify(
      const process_id& signer, std::span<const std::uint8_t> payload,
      std::span<const std::uint8_t> sig) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Keyed-hash oracle: sig = SHA-256(secret_key[signer] || payload).
/// Per-signer secrets derive from the seed, so runs are reproducible.
/// Byzantine automata in our test harness only access verify(), which models
/// unforgeability exactly (they cannot produce a digest without the secret).
class oracle_signature_scheme final : public signature_scheme {
 public:
  explicit oracle_signature_scheme(std::uint64_t seed = 42);

  [[nodiscard]] std::vector<std::uint8_t> sign(
      const process_id& signer,
      std::span<const std::uint8_t> payload) override;
  [[nodiscard]] bool verify(const process_id& signer,
                            std::span<const std::uint8_t> payload,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::string name() const override { return "oracle"; }

 private:
  [[nodiscard]] std::vector<std::uint8_t> key_for(
      const process_id& signer) const;

  std::uint64_t seed_;
};

/// Real RSA signatures. Keys are generated lazily per signer from the seed.
class rsa_signature_scheme final : public signature_scheme {
 public:
  explicit rsa_signature_scheme(std::size_t key_bits = 512,
                                std::uint64_t seed = 42);

  [[nodiscard]] std::vector<std::uint8_t> sign(
      const process_id& signer,
      std::span<const std::uint8_t> payload) override;
  [[nodiscard]] bool verify(const process_id& signer,
                            std::span<const std::uint8_t> payload,
                            std::span<const std::uint8_t> sig) const override;
  [[nodiscard]] std::string name() const override { return "rsa"; }

 private:
  const rsa_keypair& keypair_for(const process_id& signer) const;

  std::size_t key_bits_;
  std::uint64_t seed_;
  mutable std::unordered_map<process_id, rsa_keypair> keys_;
};

/// Factory by name ("oracle" | "rsa"), used by benches/examples.
[[nodiscard]] std::unique_ptr<signature_scheme> make_signature_scheme(
    const std::string& name, std::uint64_t seed = 42);

}  // namespace fastreg::crypto
