"""Model zoo: LeNet, CIFAR-VGG, CIFAR/ImageNet ResNets, MobileNet."""

from .lenet import LeNet5, LeNet300100, lenet5, lenet_300_100
from .vgg import CifarVGG, cifar_vgg
from .resnet import (
    BasicBlock,
    CifarResNet,
    ResNet18,
    resnet18,
    resnet20,
    resnet32,
    resnet56,
    resnet110,
)
from .mobilenet import MobileNetSmall, mobilenet_small
from .registry import MODELS

__all__ = [
    "LeNet300100",
    "LeNet5",
    "lenet_300_100",
    "lenet5",
    "CifarVGG",
    "cifar_vgg",
    "BasicBlock",
    "CifarResNet",
    "ResNet18",
    "resnet18",
    "resnet20",
    "resnet32",
    "resnet56",
    "resnet110",
    "MobileNetSmall",
    "mobilenet_small",
    "MODELS",
]
