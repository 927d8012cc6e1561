//! Offline stand-in for `serde_derive`: the derives expand to nothing.
//!
//! The registry is unreachable where this benchmark builds, and nothing on
//! the measured path serialises, so the derives only need to *parse* — the
//! `#[serde(...)]` helper attributes are declared so the compiler accepts
//! them on fields.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
