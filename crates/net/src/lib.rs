//! Core IPv4 addressing types shared by every crate in the InFilter
//! reproduction.
//!
//! The paper's testbed identifies traffic sources by *address sub-blocks*: the
//! 143 publicly-routable `/8` blocks of October 2004 (its Table 1), each split
//! into eight `/11` sub-blocks and named `1a` through `143h` (`125h` is the
//! last one actually used). This crate provides:
//!
//! * [`Prefix`] — a validated IPv4 CIDR prefix with containment tests,
//!   parsing and formatting.
//! * [`PrefixTrie`] — a binary trie keyed by prefixes with longest-prefix
//!   matching, the substrate for EIA sets and BGP RIBs.
//! * [`FrozenLpm`] — a multi-bit-stride compilation of a trie (direct /16
//!   root table + stride-8 nodes) for read-mostly hot paths: two to six
//!   dependent loads per lookup instead of ≤ 32 node hops, patchable one
//!   prefix at a time without recompiling.
//! * [`FlatTable`] — a fixed-capacity `u64 → u32` counter table for state
//!   keyed by attacker-chosen flow fields: never grows, never rehashes.
//! * [`blocks`] — the Table 1 block scheme and the `1a..125h` notation.
//! * [`Asn`] / [`RouterId`] — newtypes so autonomous-system numbers and
//!   router identities cannot be confused with ordinary integers.
//!
//! # Examples
//!
//! ```
//! use infilter_net::{Prefix, PrefixTrie};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut trie = PrefixTrie::new();
//! trie.insert("4.0.0.0/8".parse()?, "AS3356");
//! trie.insert("4.2.101.0/24".parse()?, "AS6325");
//!
//! // Longest prefix wins, as in the paper's Routeviews example.
//! let (pfx, who) = trie.lookup("4.2.101.20".parse()?).unwrap();
//! assert_eq!(*who, "AS6325");
//! assert_eq!(pfx, "4.2.101.0/24".parse()?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
mod flat;
mod hash;
mod ids;
mod lpm;
mod prefix;
mod trie;

pub use blocks::{SubBlock, SubBlockRange};
pub use flat::FlatTable;
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use ids::{Asn, RouterId};
pub use lpm::FrozenLpm;
pub use prefix::{ParsePrefixError, Prefix};
pub use trie::{Matches, PrefixTrie, TrieWalker};
