"""Units and physical constants used across the MD and MSM layers.

The MD engine works in reduced, Gromacs-flavoured units:

* length      — nanometres (nm)
* time        — picoseconds (ps)
* energy      — kJ/mol
* temperature — kelvin
* mass        — atomic mass units (amu = g/mol)

With these choices velocities come out in nm/ps and the Boltzmann
constant is ``KB`` kJ/(mol K), matching Gromacs conventions, so force
field parameters read naturally against the paper (which quotes
Angstroms; 1 A = 0.1 nm).
"""

#: Boltzmann constant in kJ/(mol K) (Gromacs convention).
KB = 0.00831446261815324

#: picoseconds per nanosecond.
PS_PER_NS = 1000.0

#: nanoseconds per microsecond.
NS_PER_US = 1000.0

#: nanometres per Angstrom.
NM_PER_ANGSTROM = 0.1

#: bytes per megabyte (used by the bandwidth models).
BYTES_PER_MB = 1e6

#: seconds per hour.
SECONDS_PER_HOUR = 3600.0
