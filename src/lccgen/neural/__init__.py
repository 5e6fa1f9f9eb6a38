from .adam import AdamState, adam_step, init_adam
from .autoencoder import reconstruction_mse, train_autoencoder
from .gan import (
    EPS_PHI,
    GanModel,
    MeasuringFunction,
    build_gan,
    disc_objective_and_grads,
    gen_objective_and_grads,
    train_gan,
)
from .net import Layer, Mlp, TrainingDivergedError, backward, build_mlp, forward_cached
