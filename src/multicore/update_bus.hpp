/**
 * @file
 * Update-bus bandwidth model (section 2.3).
 *
 * In migration mode every retiring instruction is broadcast so that
 * inactive cores keep architectural state (registers, stores, TLB
 * updates, branch outcomes) current. The bandwidth requirement is
 * proportional to the retirement bandwidth; with the paper's example
 * parameters (4-wide retirement, one store and one branch per cycle,
 * 6-bit register ids, 64-bit values, 16 low-order branch-address
 * bits) it comes to roughly 45 bytes per cycle.
 */

#pragma once

#include <cstdint>

namespace xmig {

/** Retirement-bandwidth parameters of the active core. */
struct RetireProfile
{
    static constexpr unsigned kRegIdBits = 6;  ///< logical register id
    static constexpr unsigned kValueBits = 64; ///< register/store value
    static constexpr unsigned kStoreAddrBits = 64;
    static constexpr unsigned kBranchAddrBits = 16; ///< low-order bits
    static constexpr unsigned kTypeBitsPerInstr = 2; ///< "a few bits"

    unsigned retireWidth = 4;       ///< instructions retired per cycle
    unsigned storesPerCycle = 1;
    unsigned branchesPerCycle = 1;
};

/**
 * Analytic update-bus model.
 */
class UpdateBusModel
{
  public:
    explicit UpdateBusModel(const RetireProfile &profile = {})
        : profile_(profile)
    {
    }

    /** Peak broadcast requirement in bits per cycle. */
    uint64_t
    bitsPerCycle() const
    {
        const RetireProfile &p = profile_;
        uint64_t bits = 0;
        // Register updates: one id + one value per retired
        // instruction. A store's value is one of these values (the
        // paper broadcasts "four 64-bit values" total), so stores
        // only add their address below.
        bits += uint64_t(p.retireWidth) * (p.kRegIdBits + p.kValueBits);
        bits += uint64_t(p.storesPerCycle) * p.kStoreAddrBits;
        // Branches: truncated address (outcome rides in the type bits).
        bits += uint64_t(p.branchesPerCycle) * p.kBranchAddrBits;
        // Instruction-type tags.
        bits += uint64_t(p.retireWidth) * p.kTypeBitsPerInstr;
        return bits;
    }

    /** Peak broadcast requirement in bytes per cycle. */
    double
    bytesPerCycle() const
    {
        return static_cast<double>(bitsPerCycle()) / 8.0;
    }

    /**
     * Average bytes per *retired instruction* for a measured dynamic
     * mix, given the fraction of instructions that are stores /
     * branches / register-writing.
     */
    double
    bytesPerInstruction(double store_frac, double branch_frac,
                        double regwrite_frac) const
    {
        using P = RetireProfile;
        double bits = P::kTypeBitsPerInstr;
        bits += regwrite_frac * (P::kRegIdBits + P::kValueBits);
        bits += store_frac * P::kStoreAddrBits;
        bits += branch_frac * P::kBranchAddrBits;
        return bits / 8.0;
    }

    const RetireProfile &profile() const { return profile_; }

  private:
    RetireProfile profile_;
};

} // namespace xmig
