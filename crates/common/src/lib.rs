//! Shared primitives for the NVR simulator stack.
//!
//! This crate hosts the small, dependency-free vocabulary used by every
//! other crate in the workspace:
//!
//! * [`Addr`] / [`LineAddr`] — byte and cache-line address newtypes.
//! * [`Cycle`] — simulation time (a plain `u64`; all timing maths stays
//!   frequency-agnostic, matching the paper's normalised-latency reporting).
//! * [`rng::Pcg32`] — a deterministic, seedable PCG-XSH-RR generator.
//!   Simulation reproducibility requires bit-stable random streams across
//!   toolchain updates, so we implement the ~40-line PCG core here instead
//!   of depending on the `rand` crate.
//! * [`width::DataWidth`] — the INT8 / FP16 / INT32 operand widths evaluated
//!   in the paper's Fig. 5.
//! * [`stats`] — counters and latency histograms shared by the cache,
//!   NPU and prefetcher models.
//!
//! # Examples
//!
//! ```
//! use nvr_common::{Addr, LINE_BYTES};
//!
//! let a = Addr::new(0x8000_1040);
//! assert_eq!(a.line().base().raw(), 0x8000_1040 & !(LINE_BYTES - 1));
//! ```

pub mod addr;
pub mod error;
pub mod flatmap;
pub mod rng;
pub mod stats;
pub mod width;

pub use addr::{Addr, LineAddr, Region, LINE_BYTES, LINE_SHIFT};
pub use error::NvrError;
pub use flatmap::FlatMap;
pub use rng::Pcg32;
pub use stats::{mean, mean_ci95, Counter, Histogram};
pub use width::DataWidth;

/// Simulation time in clock cycles.
///
/// Kept as a plain `u64` alias: timing code performs pervasive arithmetic on
/// cycles and the paper reports only normalised (frequency-independent)
/// latencies, so a newtype would add friction without preventing any real
/// bug class here.
pub type Cycle = u64;

/// Declares a fieldless registry enum and its `ALL` constant, every
/// variant in declaration order, from one variant list: a new variant
/// cannot be declared without landing in `ALL`, and the label and
/// dispatch `match`es over the enum stay exhaustive.
///
/// # Examples
///
/// ```
/// nvr_common::registry_enum! {
///     /// A colour.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Colour {
///         /// Red.
///         Red,
///         /// Green.
///         Green,
///     }
/// }
///
/// assert_eq!(Colour::ALL, [Colour::Red, Colour::Green]);
/// ```
#[macro_export]
macro_rules! registry_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident,)+
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration order.
            pub const ALL: [$name; [$(stringify!($variant)),+].len()] = [$($name::$variant),+];
        }
    };
}
