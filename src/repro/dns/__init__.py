"""DNS hostname synthesis and hostname-derived verification (paper
section 5.1.2).  Re-exports nothing: loading hostnames loads no
evaluation code."""
