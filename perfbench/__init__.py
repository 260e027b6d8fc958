"""The repo's layered end-to-end benchmark (see ``perfbench/README.md``)."""
