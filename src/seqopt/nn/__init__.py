"""Tape autodiff, layers, Adam and checkpoints; import each name from its submodule."""
