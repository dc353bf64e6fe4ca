//! Device addressing: the unified `omni_address` and the low-level,
//! technology-specific addresses it maps onto.

use core::fmt;

use serde::{Deserialize, Serialize};

/// The unified 64-bit Omni device identifier.
///
/// Paper §3.3 (*Peer Mapping*): "Upon initialization, the Omni Manager
/// generates a unique 64-bit id for a device, known as the `omni_address`,
/// using a hash of the hardware MAC addresses for the interfaces available on
/// that device." Applications identify peers exclusively by this value; the
/// mapping to per-technology low-level addresses is internal to the manager.
///
/// # Example
///
/// ```
/// use omni_wire::OmniAddress;
///
/// let a = OmniAddress::from_interface_macs(&[[2, 0, 0, 0, 0, 1], [2, 0, 0, 0, 0, 2]]);
/// // The hash is order-independent so interface enumeration order does not
/// // change a device's identity.
/// let b = OmniAddress::from_interface_macs(&[[2, 0, 0, 0, 0, 2], [2, 0, 0, 0, 0, 1]]);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OmniAddress(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl OmniAddress {
    /// Derives an address by hashing the hardware MAC addresses of the
    /// device's interfaces (FNV-1a over the sorted MAC list).
    ///
    /// Sorting makes the derivation independent of interface enumeration
    /// order, so the same hardware always yields the same `omni_address`.
    /// The list is visited in sorted order without being copied: each pass
    /// over it hashes every copy of the smallest MAC not yet hashed. That
    /// costs one pass per distinct MAC (a device has at most one per
    /// technology) and allocates nothing.
    pub fn from_interface_macs(macs: &[[u8; 6]]) -> Self {
        let mut h = FNV_OFFSET;
        let mut last: Option<&[u8; 6]> = None;
        while let Some(next) = macs.iter().filter(|m| last.is_none_or(|l| *m > l)).min() {
            for mac in macs.iter().filter(|m| *m == next) {
                for &b in mac {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(FNV_PRIME);
                }
            }
            last = Some(next);
        }
        OmniAddress(h)
    }

    /// Wraps a raw 64-bit value (used when decoding wire messages).
    pub const fn from_u64(raw: u64) -> Self {
        OmniAddress(raw)
    }

    /// Returns the raw 64-bit value (used when encoding wire messages).
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Big-endian wire encoding, exactly eight bytes.
    pub const fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Decodes the big-endian wire encoding.
    pub const fn from_bytes(bytes: [u8; 8]) -> Self {
        OmniAddress(u64::from_be_bytes(bytes))
    }
}

impl fmt::Display for OmniAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "omni:{:016x}", self.0)
    }
}

/// A 6-byte Bluetooth Low Energy hardware address.
///
/// Carried in the address beacon so peers discovered over another technology
/// can still be reached over BLE (paper §3.3, *The Omni Packed Struct*).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BleAddress(pub [u8; 6]);

impl BleAddress {
    /// Builds a BLE address from the low 48 bits of `raw` (big-endian).
    pub fn from_u64(raw: u64) -> Self {
        let b = raw.to_be_bytes();
        BleAddress([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the address as the low 48 bits of a `u64`.
    pub fn as_u64(self) -> u64 {
        let mut b = [0u8; 8];
        b[2..].copy_from_slice(&self.0);
        u64::from_be_bytes(b)
    }
}

impl fmt::Display for BleAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d, e, g] = self.0;
        write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")
    }
}

/// An 8-byte WiFi-Mesh address.
///
/// The paper's address beacon allocates 8 bytes for the WiFi-Mesh address
/// (enough for a link-local identifier or a packed IPv4 address + port). A
/// peer whose `MeshAddress` is known can be contacted with unicast TCP over
/// the mesh without any network scan or association.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MeshAddress(pub [u8; 8]);

impl MeshAddress {
    /// Builds a mesh address from a `u64` (big-endian).
    pub const fn from_u64(raw: u64) -> Self {
        MeshAddress(raw.to_be_bytes())
    }

    /// Returns the address as a `u64`.
    pub const fn as_u64(self) -> u64 {
        u64::from_be_bytes(self.0)
    }
}

impl fmt::Display for MeshAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mesh:{:016x}", self.as_u64())
    }
}

/// An NFC endpoint identifier.
///
/// NFC is one of the connectionless context technologies the paper lists
/// (§3, Figure 3: tourist devices share context over BLE *and* NFC). Real NFC
/// has no stable hardware address; we use a 4-byte tag id.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NfcAddress(pub [u8; 4]);

impl NfcAddress {
    /// Builds an NFC id from a `u32` (big-endian).
    pub const fn from_u32(raw: u32) -> Self {
        NfcAddress(raw.to_be_bytes())
    }

    /// Returns the id as a `u32`.
    pub const fn as_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl fmt::Display for NfcAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nfc:{:08x}", self.as_u32())
    }
}

#[cfg(test)]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omni_address_is_order_independent() {
        let m1 = [0x02, 0x11, 0x22, 0x33, 0x44, 0x55];
        let m2 = [0x02, 0xaa, 0xbb, 0xcc, 0xdd, 0xee];
        assert_eq!(
            OmniAddress::from_interface_macs(&[m1, m2]),
            OmniAddress::from_interface_macs(&[m2, m1])
        );
    }

    #[test]
    fn omni_address_distinguishes_devices() {
        let a = OmniAddress::from_interface_macs(&[[2, 0, 0, 0, 0, 1]]);
        let b = OmniAddress::from_interface_macs(&[[2, 0, 0, 0, 0, 2]]);
        assert_ne!(a, b);
    }

    #[test]
    fn omni_address_roundtrips_through_bytes() {
        let a = OmniAddress::from_u64(0xdead_beef_cafe_f00d);
        assert_eq!(OmniAddress::from_bytes(a.to_bytes()), a);
    }

    #[test]
    fn omni_address_display_is_hex() {
        let a = OmniAddress::from_u64(0x1234);
        assert_eq!(a.to_string(), "omni:0000000000001234");
    }

    #[test]
    fn ble_address_u64_roundtrip() {
        let a = BleAddress([1, 2, 3, 4, 5, 6]);
        assert_eq!(BleAddress::from_u64(a.as_u64()), a);
    }

    #[test]
    fn ble_address_ignores_high_bits() {
        let a = BleAddress::from_u64(0xffff_0102_0304_0506);
        assert_eq!(a, BleAddress([1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn mesh_address_u64_roundtrip() {
        let a = MeshAddress::from_u64(0x0102_0304_0506_0708);
        assert_eq!(MeshAddress::from_u64(a.as_u64()), a);
        assert_eq!(a.0, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn nfc_address_u32_roundtrip() {
        let a = NfcAddress::from_u32(0xfeed_beef);
        assert_eq!(NfcAddress::from_u32(a.as_u32()), a);
    }

    #[test]
    fn displays_are_nonempty_and_distinct() {
        assert_eq!(BleAddress([1, 2, 3, 4, 5, 6]).to_string(), "01:02:03:04:05:06");
        assert!(MeshAddress::from_u64(7).to_string().starts_with("mesh:"));
        assert!(NfcAddress::from_u32(7).to_string().starts_with("nfc:"));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") reference value.
        assert_eq!(hash_bytes(b"a"), 0xaf63dc4c8601ec8c);
    }
}
